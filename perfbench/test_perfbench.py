"""Tests of the benchmark's own machinery: the self-time sweep, the clock's
speed scaling, binding
restoration, and traced runs matching untraced ones.

    python3 -m pytest perfbench -q
"""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import fedtier  # noqa: E402
import fedtier.cli  # noqa: E402

from clock import REFERENCE_S, Clock  # noqa: E402
from run import STAGES, layer_metrics  # noqa: E402
from tracer import LAYER_TARGETS, Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, CliWorkload, LibraryWorkload  # noqa: E402

MODULES = sorted({t.module for t in LAYER_TARGETS})


def _bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "fedtier" or name.startswith("fedtier.")
            for attr, value in vars(mod).items() if callable(value)}


def _traced(workload, work_dir, data_seed=5):
    tracer = Tracer(LAYER_TARGETS)
    with tracer:
        w0 = time.perf_counter()
        inputs = workload.setup(data_seed, work_dir)
        outcome = workload.run_once(inputs)
    return tracer, outcome, layer_metrics(tracer, w0, outcome.t_end,
                                          inputs[0], outcome)


def test_self_times_split_overlapping_threads():
    # A waits on two workers; B runs on one, C (with child D) on the other.
    spans = [Span(0, "A", 0.0, 10.0, None, 1, 0), Span(1, "B", 1.0, 4.0, 0, 2, 0),
             Span(2, "C", 2.0, 6.0, 0, 3, 0), Span(3, "D", 3.0, 5.0, 2, 3, 0)]
    own, idle = self_times(spans, -1.0, 11.0)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 1.5, 3: 1.5})
    assert idle == pytest.approx(2.0)
    assert sum(own.values()) + idle == pytest.approx(12.0)


def test_clock_scales_each_phase_by_the_kernel_around_it():
    kernel_times = iter([REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S,
                         4 * REFERENCE_S, 8 * REFERENCE_S])
    runs = []

    def kernel(threads):
        runs.append(threads)
        return next(kernel_times)

    clock = Clock(kernel)
    with clock.phase() as first:
        time.sleep(0.01)
    with clock.phase() as second:
        pass
    with clock.phase(threads=2) as pooled:   # bracketed by two fresh 2-thread kernels
        pass
    assert runs == [1, 1, 1, 2, 2]
    assert first.factor == pytest.approx(0.5) and second.factor == pytest.approx(0.4)
    assert pooled.factor == pytest.approx(2 / 6)
    assert first.s == pytest.approx(0.5 * first.raw_s) and first.raw_s >= 0.01
    assert clock.factor_at(pooled.t0) == pooled.factor
    assert clock.factor_at(second.t0 + second.raw_s / 2) == second.factor
    with Clock().phase() as unscaled:
        pass
    assert unscaled.factor == 1.0 and unscaled.s == unscaled.raw_s


def test_tracer_restores_identical_originals():
    before = _bindings()
    with Tracer(LAYER_TARGETS):
        assert fedtier.federation.local_update is not before[("fedtier.federation", "local_update")]
        assert fedtier.model.tier_gradient is not before[("fedtier.model", "tier_gradient")]
        assert fedtier.cli.save_adapter is not before[("fedtier.cli", "save_adapter")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", [
    LibraryWorkload("tiny_mini", n_total=12, per_class=60, batch_mode="mini"),
    CliWorkload("tiny_cli_w2", n_total=12, per_class=60, workers=2),
], ids=lambda w: w.name)
def test_self_times_add_up_to_traced_wall(workload, tmp_path):
    tracer, outcome, layer = _traced(workload, tmp_path)
    assert not outcome.problems
    assert outcome.sample_epochs > 0 and outcome.rounds_executed > 0
    module_self = sum(layer[f"{m}.self_s"] for m in MODULES)
    wall = layer["traced_wall_s"]
    assert module_self + layer["unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert layer["unattributed_s"] <= 0.05 * wall
    # spans opened on pool threads hang under the stage waiting for them
    by_id = {s.sid: s for s in tracer.spans}
    pool_roots = [s for s in tracer.spans if s.thread != tracer.owner
                  and (s.parent is None or by_id[s.parent].thread != s.thread)]
    assert bool(pool_roots) == (getattr(workload, "workers", 1) > 1)
    assert all(s.parent is not None and by_id[s.parent].name in STAGES for s in pool_roots)


@pytest.mark.parametrize("name", ["readme_full", "cli_roundtrip_w2"])
def test_traced_iteration_gives_untraced_outputs(name, tmp_path):
    workload = WORKLOADS[name]
    if name == "cli_roundtrip_w2":   # same entry point and thread pool, smaller data
        workload = CliWorkload(name, n_total=24, per_class=120, workers=2)
    plain = workload.run_once(workload.setup(23, tmp_path))
    _, traced, _ = _traced(workload, tmp_path, data_seed=23)
    assert not plain.problems and not traced.problems
    for field in ("digest", "mean_acc", "ari", "route_acc", "sample_epochs", "rounds_executed"):
        assert getattr(traced, field) == getattr(plain, field), field
