"""fedtier benchmark: one command, three workloads, end-to-end metrics with
tracing off and per-layer metrics from a separate traced pass.

    python3 perfbench/run.py --workload readme_full --seed 23 --seconds 40 --trace 0
    python3 -m pytest perfbench -q        # the benchmark's own tests

``--seed`` is the data seed (the README's 23 by default); the protocol runs
with the README's master seed 3. The same seed gives the same inputs. The
program under test is the ``fedtier`` package in ``src/`` next to this
directory; the command refuses to run any other copy.

``--trace 0`` sets up the inputs several times, runs one warm-up iteration
that is checked but not timed, then iterates on fresh inputs until
``--seconds`` after the start (at least five iterations) and reports
medians. Set-up and each phase of an iteration are timed on a
clock scaled to a reference machine speed (``clock.py``), because the
shared CPU's speed drifts by up to 2x over minutes; the raw medians and
the speed factor are printed too. ``--trace 1`` alternates untraced and
traced passes of set-up plus one iteration and reports per-layer self time,
inclusive time and call counts, averaged over the traced passes, plus the
tracing overhead (traced minus untraced wall time, both raw).

End-to-end metrics, reported on every workload: ``setup_s`` (generating
the inputs; for the CLI workload also writing its config), ``total_s`` (one
iteration), ``protocol_s`` (run_protocol), ``metrics_s`` (one
compute_metrics call, pooled over the run: the CLI workload makes two per
iteration), ``adapt_ms_p50`` (adapt_unseen per unseen client, pooled over
the run), ``train_samples_per_s`` (rows x epochs of the
protocol's local updates over ``protocol_s``), ``peak_rss_mb``, and the
quality metrics ``mean_acc``, ``ari`` and ``route_acc``. Also printed, but
not bounded: ``adapt_ms_p90``, with the number of samples beyond it, the
tail of calls of a few milliseconds, which follows the shared CPU's bursts
more than the program; ``cli_run_s``
(``run``) and ``cli_reload_s`` (``report`` + ``cluster-diag`` + ``adapt``)
on the CLI workload; and ``error_rate``.

Every iteration passes the correctness gate in ``workloads.py``; identical
inputs must also give byte-identical outputs across iterations and between
traced and untraced passes. Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, whose metric names and units come
from ``BENCHMARK.json``. The exit code is 0 only when every check passed.
Full results, provenance and the spans of the last traced pass are written
under ``.perfbench_out/`` in the repository root.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from clock import REFERENCE_S, Clock, reference_kernel_s
from tracer import LAYER_TARGETS, Tracer, has_ancestor, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
MIN_ITERATIONS = 5
MAX_UNATTRIBUTED = 0.05
STAGES = ("federation.run_root_stage", "federation.run_cluster_stage",
          "federation.run_leaf_stage")


def _import_program():
    """Import fedtier from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fedtier
    except ImportError as exc:
        raise SystemExit(f"error: cannot import fedtier from {ROOT / 'src'}: {exc}")
    if not Path(fedtier.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: fedtier was imported from {fedtier.__file__}, "
                         f"not from {ROOT / 'src'}")


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args) -> dict:
    import numpy as np
    from workloads import MASTER_SEED

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "data_seed": args.seed, "master_seed": MASTER_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "default") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(), "src_sha256": src.hexdigest(),
    }


def _signature(o):
    return (o.digest, o.mean_acc, o.ari, o.route_acc, o.sample_epochs, o.rounds_executed)


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, outcome, reference=None):
        self.attempted += outcome.attempted
        if reference is not None and _signature(outcome) != _signature(reference):
            outcome.problems.append("outputs differ from the first iteration on identical inputs")
        self.failed += outcome.failed
        self.problems += outcome.problems

    def crash(self):
        traceback.print_exc()
        self.attempted += 1
        self.failed += 1
        self.problems.append(traceback.format_exc().strip().splitlines()[-1])


def _loop(deadline, step, min_laps):
    """Call ``step`` until the next call would end past ``deadline`` (a
    perf_counter reading), but at least ``min_laps`` times; stop early when
    ``step`` returns False."""
    laps = []
    while True:
        gc.collect()
        t = time.perf_counter()
        if step() is False:
            return
        laps.append(time.perf_counter() - t)
        if len(laps) >= min_laps and time.perf_counter() + statistics.median(laps) > deadline:
            return


def measure(wl, args, work_dir, tally):
    """Untraced pass: the end-to-end metrics. Each iteration runs on freshly
    set-up inputs, so the set-up timings spread over the whole run too.
    Every set-up and iteration phase runs on a clock that scales its times
    to the reference machine speed (see clock.py); the raw medians and the
    speed factor are printed alongside."""
    deadline = time.perf_counter() + args.seconds
    setups, outcomes, factors = [], [], []

    def fresh_inputs(clock):
        with clock.phase() as ph:
            inputs = wl.setup(args.seed, work_dir)
        setups.append(ph)
        return inputs

    for _ in range(SETUP_REPEATS):
        gc.collect()
        inputs = fresh_inputs(Clock(reference_kernel_s))
    warm = wl.run_once(inputs)
    tally.add(warm)

    def step():
        clock = Clock(reference_kernel_s)
        outcomes.append(wl.run_once(fresh_inputs(clock), clock))
        factors.extend(ph.factor for ph in clock.phases)
        tally.add(outcomes[-1], warm)
        return not outcomes[-1].problems

    if not warm.problems:
        _loop(deadline, step, MIN_ITERATIONS)
    if not outcomes or tally.failed:
        return {}, {}
    median = statistics.median
    latencies = [x for o in outcomes for x in o.adapt_s]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": median([ph.s for ph in setups]),
        "total_s": median([o.total_s for o in outcomes]),
        "protocol_s": median([o.protocol_s for o in outcomes]),
        "metrics_s": median([x for o in outcomes for x in o.metrics_s]),
        "adapt_ms_p50": 1e3 * deciles[4],
        "adapt_ms_p90": 1e3 * deciles[8],
        "train_samples_per_s": median([o.sample_epochs / o.protocol_s for o in outcomes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_acc": warm.mean_acc, "ari": warm.ari, "route_acc": warm.route_acc,
    }
    for key in sorted({k for o in outcomes for k in o.extra}):
        metrics[key] = median([o.extra[key] for o in outcomes])
    notes = {
        "iterations": f"{len(outcomes)} measured after 1 warm-up; {len(setups)} set-ups",
        "adapt_samples": f"{len(latencies)} per-client latencies, "
                         f"{len(latencies) - math.ceil(0.9 * len(latencies))} beyond p90",
        "train_samples": f"{warm.sample_epochs} rows x epochs per protocol run",
        "speed": f"median factor {median(factors):.4f} over {len(factors)} phases "
                 f"(reference kernel {REFERENCE_S * 1e3:g} ms / measured)",
        "raw": f"setup_s {median([ph.raw_s for ph in setups]):.6g} "
               f"total_s {median([o.raw_s for o in outcomes]):.6g}",
    }
    return metrics, notes


def layer_metrics(tracer, w0, w1, data, outcome):
    """Per-layer metrics of one traced pass over the window [w0, w1];
    ``data`` is the federation the pass trained on."""
    spans = tracer.spans
    own, idle = self_times(spans, w0, w1)
    stats = {t.label: [0, 0.0, 0.0, 0] for t in LAYER_TARGETS if t.kind == "span"}
    for s in spans:
        st = stats[s.name]
        st[0] += 1
        st[1] += s.t1 - s.t0
        st[2] += own[s.sid]
        st[3] += s.work
    out = {}
    modules = {t.module: 0.0 for t in LAYER_TARGETS}
    for name, (calls, incl, excl, _) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = incl
        out[f"{name}.self_s"] = excl
        modules[name.split(".")[0]] += excl
    counts = tracer.counts()
    for t in LAYER_TARGETS:
        if t.kind == "count":
            out[f"{t.label}.calls"] = counts.get(t.label, 0)
    for module, excl in modules.items():
        out[f"{module}.self_s"] = excl
    out["unattributed_s"] = idle
    out["traced_wall_s"] = w1 - w0
    out["model.encode.rows"] = stats["model.encode"][3]
    rows = sum(len(c.train) + len(c.test) for c in data.clients + data.unseen)
    out["model.encode.reencode_ratio"] = stats["model.encode"][3] / rows
    by_id = {s.sid: s for s in spans}
    busy = sum(s.t1 - s.t0 for s in spans
               if s.name == "model.local_update" and has_ancestor(s, by_id, STAGES))
    out["federation.worker_overlap"] = busy / sum(out[f"{n}.s"] for n in STAGES)
    out["federation.rounds_executed"] = outcome.rounds_executed
    out["cli.artifact_bytes"] = outcome.extra.get("artifact_bytes", 0)
    return out


def trace(wl, args, work_dir, tally):
    """Traced pass in its own process: per-layer metrics and the overhead."""
    deadline = time.perf_counter() + args.seconds
    warm = wl.run_once(wl.setup(args.seed, work_dir))
    tally.add(warm)
    tracer = Tracer(LAYER_TARGETS)
    modules = {t.module for t in LAYER_TARGETS}
    untraced, traced, layers, last = [], [], [], []

    def step():
        w0 = time.perf_counter()
        plain = wl.run_once(wl.setup(args.seed, work_dir))
        untraced.append(plain.t_end - w0)
        tally.add(plain, warm)
        gc.collect()
        tracer.reset()
        with tracer:
            w0 = time.perf_counter()
            inputs = wl.setup(args.seed, work_dir)
            outcome = wl.run_once(inputs)
        traced.append(outcome.t_end - w0)
        layer = layer_metrics(tracer, w0, outcome.t_end, inputs[0], outcome)
        layers.append(layer)
        wall = layer["traced_wall_s"]
        module_self = sum(layer[f"{m}.self_s"] for m in modules)
        if abs(module_self + layer["unattributed_s"] - wall) > 1e-6 * wall:
            outcome.problems.append("layer self times do not add up to the traced wall time")
        if layer["unattributed_s"] > MAX_UNATTRIBUTED * wall:
            outcome.problems.append(f"unattributed time {layer['unattributed_s']:.3f} s exceeds "
                                    f"{MAX_UNATTRIBUTED:.0%} of {wall:.3f} s")
        tally.add(outcome, warm)
        last[:] = [tracer.spans, w0]
        return not (plain.problems or outcome.problems)

    if not warm.problems:
        _loop(deadline, step, 1)
    if not layers or tally.failed:
        return {}, {}
    _write_spans(args, *last)
    metrics = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        # counts repeat exactly; times are averaged so the sums still add up
        metrics[key] = (values[0] if all(isinstance(v, int) for v in values)
                        else statistics.fmean(values))
    metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    notes = {"passes": f"{len(layers)} traced and {len(untraced)} untraced passes of "
                       "set-up plus one iteration, after 1 warm-up"}
    return metrics, notes


def _write_spans(args, spans, w0):
    path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.t0 - w0,
                                 "end": s.t1 - w0, "parent": s.parent,
                                 "thread": s.thread, "work": s.work}) + "\n")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=23, help="data seed")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("the seed must be non-negative")

    _import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    tally = Tally()
    try:
        metrics, notes = (trace if args.trace else measure)(wl, args, work_dir, tally)
    except Exception:
        tally.crash()
        metrics, notes = {}, {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(metrics):
        unit = units.get(name) or ("s" if name.endswith(("_s", ".s")) else
                                   "ms" if "_ms" in name else
                                   "bytes" if name.endswith("bytes") else "count")
        print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    for key, text in notes.items():
        print(f"{key}: {text}")
    error_rate = tally.failed / max(tally.attempted, 1)
    print(f"error_rate: {error_rate:.6g} ({tally.failed} of {tally.attempted} operations failed)")
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    prov = provenance(args)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    correct = tally.failed == 0 and all(m["name"] in metrics for m in wanted)
    result = {
        "correct": correct, "attempted": max(tally.attempted, 1), "failed": tally.failed,
        "metrics": ({m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
                    if correct else {}),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "all_metrics": metrics, "notes": notes,
                    "problems": tally.problems, "provenance": prov}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
