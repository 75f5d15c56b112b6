"""tools/bench_record.py runs every workload with tracing off and on, stops
at the first run that fails, and merges the six result files into one."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

WORKLOADS = [w["name"] for w in json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
             ["workloads"]]


def fake_runs(monkeypatch, tmp_path, fail=None):
    """Replace the benchmark subprocess by one that writes a small result
    file, or exits 1 for the (workload, trace) pair `fail`."""
    calls = []
    monkeypatch.setattr(bench_record, "RESULTS", tmp_path)

    def run(workload, seconds, trace):
        calls.append((workload, trace))
        if (workload, trace) == fail:
            return 1
        (tmp_path / f"{workload}-seed23-trace{trace}.json").write_text(
            json.dumps({"result": {"correct": True}, "seconds": seconds}))
        return 0

    monkeypatch.setattr(bench_record, "run_benchmark", run)
    return calls


def test_merges_every_workload_at_both_trace_settings(monkeypatch, tmp_path):
    calls = fake_runs(monkeypatch, tmp_path)
    out = tmp_path / "bench.json"
    assert bench_record.main(["--out", str(out), "--seconds", "2"]) == 0
    assert calls == [(w, t) for w in WORKLOADS for t in (0, 1)]
    record = json.loads(out.read_text())
    assert sorted(record["workloads"]) == sorted(WORKLOADS)
    for runs in record["workloads"].values():
        assert runs == {f"trace{t}": {"result": {"correct": True}, "seconds": 2.0}
                        for t in (0, 1)}
    assert (record["seed"], record["seconds"]) == (23, 2.0)
    assert record["blas_threads"] is None or record["blas_threads"] >= 1
    assert {"git_sha", "git_clean"} <= set(record)


def test_stops_at_the_first_failing_run(monkeypatch, tmp_path, capsys):
    calls = fake_runs(monkeypatch, tmp_path, fail=(WORKLOADS[0], 1))
    out = tmp_path / "bench.json"
    assert bench_record.main(["--out", str(out)]) == 1
    assert calls == [(WORKLOADS[0], 0), (WORKLOADS[0], 1)]
    assert not out.exists()
    assert "exited with 1" in capsys.readouterr().err
