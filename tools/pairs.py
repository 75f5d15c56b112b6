"""Compare the benchmark of a base git ref with this checkout, in
alternating pairs of runs.

    python3 tools/pairs.py --base <ref> --workload W [--pairs 10] [--seconds 6] [--seed 23]

Both sides run from copies in one temporary directory, in sibling
directories whose names have the same length, so neither side's paths
differ from the other's but by those names. The base is extracted with
``git archive <ref> | tar -x``; the change is this checkout's files as they
stand (tracked files with their uncommitted edits, and untracked files that
git does not ignore). The repository's .git and work tree are left
untouched. Each pair runs perfbench/run.py --trace 0 once in each tree,
each run a subprocess of its own; the base runs first in odd pairs and
second in even ones, so a drift of the shared CPU's speed favours neither.
For every end-to-end metric of BENCHMARK.json the tool then prints the base
median, the change median, their ratio, the pairs the change won (strictly
better by the metric's ``better``) and the base IQR over its median, the
spread a change must beat. It stops with exit code 1 at the first run that exits non-zero or
reports itself incorrect. Only the standard library is used.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(ref: str, dest: Path) -> bool:
    """Write the tree of `ref` into dest with git archive | tar -x; False if either fails."""
    archive = subprocess.Popen(["git", "archive", ref], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    return archive.wait() == 0 and untar.returncode == 0


def copy_checkout(dest: Path) -> bool:
    """Copy this checkout's files into dest as they stand: tracked files,
    uncommitted edits included, and untracked files that git does not ignore;
    a tracked file deleted from the work tree is left out. False if git fails."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True)
    if listed.returncode != 0:
        return False
    for name in filter(None, os.fsdecode(listed.stdout).split("\0")):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return True


def run_benchmark(tree: Path, workload: str, seconds: float, seed: int):
    """Run perfbench/run.py --trace 0 in `tree`; returns its exit code and the
    result object of its last output line, or None when that is not JSON."""
    command = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
               "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def summary(pairs, metrics) -> list[str]:
    """One line per end-to-end metric over the (base, change) result pairs:
    the base median, the change median, change / base, the pairs the change
    won by the metric's `better` and the base IQR / median; n/a where a
    ratio's denominator is 0 or the base has fewer than two runs."""
    lines = [f"{'metric':22s} {'base median':>14s} {'change median':>14s} {'ratio':>7s} "
             f"{'won':>7s} {'base IQR/median':>16s}"]
    for metric in metrics:
        name = metric["name"]
        base, change = ([run["metrics"][name]["value"] for run in side] for side in zip(*pairs))
        lower = metric["better"] == "lower"
        won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        base_med, change_med = statistics.median(base), statistics.median(change)
        ratio = change_med / base_med if base_med else None
        spread = None
        if len(base) > 1 and base_med:
            q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
            spread = (q3 - q1) / abs(base_med)
        lines.append(f"{name:22s} {_fmt(base_med):>14s} {_fmt(change_med):>14s} "
                     f"{'n/a' if ratio is None else f'{ratio:.3f}':>7s} "
                     f"{f'{won}/{len(pairs)}':>7s} "
                     f"{'n/a' if spread is None else f'{spread:.3f}':>16s}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the git ref to compare with")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=23, help="the benchmark's data seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees, pairs = {"base": Path(tmp) / "base", "change": Path(tmp) / "work"}, []
        for tree in trees.values():
            tree.mkdir()
        if not extract(args.base, trees["base"]):
            print(f"error: cannot extract {args.base!r} with git archive", file=sys.stderr)
            return 1
        if not copy_checkout(trees["change"]):
            print("error: cannot list this checkout's files with git ls-files", file=sys.stderr)
            return 1
        for i in range(args.pairs):
            results = {}
            for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                code, result = run_benchmark(trees[side], args.workload, args.seconds,
                                             args.seed)
                if code != 0 or not (result or {}).get("correct"):
                    print(f"error: the {side} run of pair {i + 1} exited with {code} and "
                          f"correct={None if result is None else result.get('correct')}",
                          file=sys.stderr)
                    return 1
                results[side] = result
            pairs.append((results["base"], results["change"]))
            print(f"pair {i + 1}/{args.pairs} done", flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs at {args.seconds:g} s: "
          f"base {args.base} against a copy of this checkout")
    print("\n".join(summary(pairs, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
