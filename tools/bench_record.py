"""Record one benchmark baseline: run perfbench/run.py for every workload in
BENCHMARK.json with tracing off once and on three times, and merge the
results into one file.

    python3 tools/bench_record.py --out BENCH_<n>.json [--seconds 40]

Each run is a subprocess of its own, as the benchmark is meant to run; the
first one that exits non-zero stops the recording with exit code 1. The
merged file holds, keyed by workload, the full result (metrics, notes,
problems and provenance) of the trace-0 run as "trace0" and of the traced
run whose traced_wall_s is the median of the three as "trace1", each read
from .perfbench_out/<workload>-seed23-trace<t>.json as its run wrote it,
and the three traced walls in run order as "trace1_walls_s": single traced
runs of the same code read far apart, so one would carry that spread into
every per-layer number. The file also holds the git commit of the
checkout, whether its tree was clean, and the thread count of numpy's
bundled OpenBLAS in this process (null without that OpenBLAS). After writing it, the tool prints
each end-to-end metric of BENCHMARK.json per workload, at trace 0, as the
ratio of the new value to that of the newest BENCH_<n>.json in the
repository root other than --out (the largest n). Only the standard library
and the fedtier package next to this file are used.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench_out"
SEED = 23   # perfbench/run.py's default data seed, which names its result files
RECORDS = ROOT   # where the committed BENCH_<n>.json files are
TRACED_RUNS = 3   # trace-1 runs per workload, of which the median traced wall is kept


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def blas_threads() -> int | None:
    """The in-process thread count of numpy's bundled OpenBLAS, or None."""
    sys.path.insert(0, str(ROOT / "src"))
    from fedtier import linalg

    return None if linalg._OPENBLAS is None else linalg._OPENBLAS[0]()


def run_benchmark(workload: str, seconds: float, trace: int) -> int:
    """Run one benchmark command and return its exit code."""
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seconds", str(seconds), "--trace", str(trace)]
    print("$ " + " ".join(command[1:]), flush=True)
    return subprocess.run(command, cwd=ROOT).returncode


def record_workload(workload: str, seconds: float) -> dict | None:
    """Run the workload once at trace 0 and TRACED_RUNS times at trace 1,
    reading each result from RESULTS right after its run; returns the
    workload's entry of the record, or None once a run exits non-zero."""
    runs = {0: [], 1: []}
    for trace in (0, *[1] * TRACED_RUNS):
        code = run_benchmark(workload, seconds, trace)
        if code != 0:
            print(f"error: {workload} at --trace {trace} exited with {code}", file=sys.stderr)
            return None
        runs[trace].append(json.loads(
            (RESULTS / f"{workload}-seed{SEED}-trace{trace}.json").read_text()))
    walls = [run["result"]["metrics"]["traced_wall_s"]["value"] for run in runs[1]]
    median = sorted(range(TRACED_RUNS), key=walls.__getitem__)[TRACED_RUNS // 2]
    return {"trace0": runs[0][0], "trace1": runs[1][median], "trace1_walls_s": walls}


def previous_record(out: Path) -> Path | None:
    """The BENCH_<n>.json in RECORDS with the largest n, other than `out`."""
    found = [(int(m[1]), path) for path in RECORDS.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
             and path.resolve() != out.resolve()]
    return max(found)[1] if found else None


def comparison(record: dict, previous: dict, metrics) -> list[str]:
    """One line per workload and metric: the new trace-0 value, the previous
    one and their ratio, n/a where a value is missing or the old one is 0."""
    def value(rec, workload, name):
        run = rec["workloads"].get(workload, {}).get("trace0", {})
        return run.get("result", {}).get("metrics", {}).get(name, {}).get("value")

    lines = []
    for workload in record["workloads"]:
        for name in metrics:
            new, old = value(record, workload, name), value(previous, workload, name)
            ratio = "n/a" if new is None or not old else f"{new / old:.3f}"
            shown = ["n/a" if v is None else f"{v:.6g}" for v in (new, old)]
            lines.append(f"  {workload} {name}: {shown[0]} / {shown[1]} = {ratio}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="the merged JSON file")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    merged = {}
    for workload in (w["name"] for w in spec["workloads"]):
        merged[workload] = record_workload(workload, args.seconds)
        if merged[workload] is None:
            return 1
    record = {"git_sha": _git("rev-parse", "HEAD"),
              "git_clean": _git("status", "--porcelain") == "",
              "blas_threads": blas_threads(), "seed": SEED, "seconds": args.seconds,
              "workloads": merged}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    previous = previous_record(args.out)
    if previous is None:
        print("no earlier BENCH_<n>.json to compare with")
        return 0
    print(f"end-to-end metrics at trace 0, new / {previous.name}:")
    print("\n".join(comparison(record, json.loads(previous.read_text()),
                               [m["name"] for m in spec["end_to_end"]])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
