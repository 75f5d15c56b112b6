"""tools/bench_record.py runs every workload with tracing off once and on
three times, stops at the first run that fails, merges each workload's
trace-0 result and its median-wall trace-1 result into one file, and prints
the end-to-end metrics against the newest earlier BENCH_<n>.json."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

WORKLOADS = [w["name"] for w in json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
             ["workloads"]]


# each workload's three traced walls, in run order: the median is the third run's
WALLS = [0.5, 0.25, 0.375]


def fake_runs(monkeypatch, tmp_path, fail=None, metrics=None):
    """Replace the benchmark subprocess by one that writes a small result
    file, with `metrics` (name to value) when given and, at trace 1, the
    next of WALLS as its traced_wall_s and its run's place as "run", or
    exits 1 for the (workload, trace) pair `fail`. Earlier records are
    looked up in tmp_path."""
    calls = []
    monkeypatch.setattr(bench_record, "RESULTS", tmp_path)
    monkeypatch.setattr(bench_record, "RECORDS", tmp_path)

    def run(workload, seconds, trace):
        calls.append((workload, trace))
        if (workload, trace) == fail:
            return 1
        result = {"correct": True, "metrics": {name: {"value": v}
                                               for name, v in (metrics or {}).items()}}
        out = {"result": result, "seconds": seconds}
        if trace == 1:
            out["run"] = calls.count((workload, 1)) - 1
            result["metrics"]["traced_wall_s"] = {"value": WALLS[out["run"]]}
        (tmp_path / f"{workload}-seed23-trace{trace}.json").write_text(json.dumps(out))
        return 0

    monkeypatch.setattr(bench_record, "run_benchmark", run)
    return calls


def test_merges_every_workload_keeping_the_median_traced_run(monkeypatch, tmp_path):
    calls = fake_runs(monkeypatch, tmp_path)
    out = tmp_path / "bench.json"
    assert bench_record.main(["--out", str(out), "--seconds", "2"]) == 0
    assert calls == [(w, t) for w in WORKLOADS for t in (0, 1, 1, 1)]
    record = json.loads(out.read_text())
    assert sorted(record["workloads"]) == sorted(WORKLOADS)
    for runs in record["workloads"].values():
        assert runs == {
            "trace0": {"result": {"correct": True, "metrics": {}}, "seconds": 2.0},
            "trace1": {"result": {"correct": True, "metrics": {"traced_wall_s": {
                "value": 0.375}}}, "seconds": 2.0, "run": 2},
            "trace1_walls_s": WALLS}
    assert (record["seed"], record["seconds"]) == (23, 2.0)
    assert record["blas_threads"] is None or record["blas_threads"] >= 1
    assert {"git_sha", "git_clean"} <= set(record)


def test_stops_at_the_first_failing_run(monkeypatch, tmp_path, capsys):
    calls = fake_runs(monkeypatch, tmp_path, fail=(WORKLOADS[1], 1))
    out = tmp_path / "bench.json"
    assert bench_record.main(["--out", str(out)]) == 1
    assert calls == [(WORKLOADS[0], t) for t in (0, 1, 1, 1)] + [(WORKLOADS[1], 0),
                                                                 (WORKLOADS[1], 1)]
    assert not out.exists()
    assert "exited with 1" in capsys.readouterr().err


def record_with(values):
    """A merged record whose every workload's trace-0 run has these metric values."""
    return {"workloads": {w: {"trace0": {"result": {"metrics": {
        name: {"value": v} for name, v in values.items()}}}} for w in WORKLOADS}}


def test_prints_each_end_to_end_metric_against_the_newest_earlier_record(monkeypatch, tmp_path,
                                                                         capsys):
    fake_runs(monkeypatch, tmp_path, metrics={"protocol_s": 2.0, "metrics_s": 0.5, "ari": 1.0})
    # found by number, not by name order: BENCH_10 is newer than BENCH_9
    (tmp_path / "BENCH_9.json").write_text(json.dumps(record_with({"protocol_s": 1.0})))
    (tmp_path / "BENCH_10.json").write_text(json.dumps(record_with(
        {"protocol_s": 4.0, "metrics_s": 0.25, "ari": 0.0})))
    out = tmp_path / "BENCH_11.json"   # the record being written is never its own baseline
    assert bench_record.main(["--out", str(out), "--seconds", "1"]) == 0
    text = capsys.readouterr().out
    assert "new / BENCH_10.json" in text
    end_to_end = [m["name"] for m in json.loads(
        (TOOL.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]]
    lines = [line.strip() for line in text.splitlines() if line.startswith("  ")]
    assert len(lines) == len(WORKLOADS) * len(end_to_end)
    for w in WORKLOADS:
        assert f"{w} protocol_s: 2 / 4 = 0.500" in lines
        assert f"{w} metrics_s: 0.5 / 0.25 = 2.000" in lines
        assert f"{w} ari: 1 / 0 = n/a" in lines        # an old value of 0 has no ratio
        assert f"{w} peak_rss_mb: n/a / n/a = n/a" in lines


def test_says_so_when_there_is_no_earlier_record(monkeypatch, tmp_path, capsys):
    fake_runs(monkeypatch, tmp_path)
    out = tmp_path / "BENCH_3.json"
    assert bench_record.main(["--out", str(out)]) == 0
    assert "no earlier BENCH_<n>.json" in capsys.readouterr().out
