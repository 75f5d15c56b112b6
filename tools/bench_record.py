"""Record one benchmark baseline: run perfbench/run.py for every workload in
BENCHMARK.json with tracing off and on, and merge the results into one file.

    python3 tools/bench_record.py --out BENCH_<n>.json [--seconds 40]

Each run is a subprocess of its own, as the benchmark is meant to run; the
first one that exits non-zero stops the recording with exit code 1. The
merged file holds every run's full result (metrics, notes, problems and
provenance) from .perfbench_out/<workload>-seed23-trace<t>.json, keyed
by workload and trace, plus the git commit of the checkout, whether its
tree was clean, and the thread count of numpy's bundled OpenBLAS in this
process (null without that OpenBLAS). Only the standard library and the
fedtier package next to this file are used.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench_out"
SEED = 23   # perfbench/run.py's default data seed, which names its result files


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


def merge(workloads) -> dict:
    """Every workload's trace 0 and trace 1 results, read from RESULTS."""
    return {w: {f"trace{t}": json.loads((RESULTS / f"{w}-seed{SEED}-trace{t}.json").read_text())
                for t in (0, 1)}
            for w in workloads}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="the merged JSON file")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            code = run_benchmark(workload, args.seconds, trace)
            if code != 0:
                print(f"error: {workload} at --trace {trace} exited with {code}",
                      file=sys.stderr)
                return 1
    record = {"git_sha": _git("rev-parse", "HEAD"),
              "git_clean": _git("status", "--porcelain") == "",
              "blas_threads": blas_threads(), "seed": SEED, "seconds": args.seconds,
              "workloads": merge(workloads)}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
