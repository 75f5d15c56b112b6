"""The golden run record: the artifacts of six fixed runs, the numbers behind
them, and the build they were made on.

    python3 tools/golden.py --write    # regenerate tests/golden/<case>.json

The cases are the README config in full batch (batch size 32), in mini batch
at batch sizes 32, 4096 and 1 (batch size 1 at lr 0.02: it diverges at the
README's lr 0.1), in full batch with no leaf stage (t_leaf 0, so every leaf
is zero and the orthogonality report excludes every leaf pair), and a small
sc_dir config whose manifest fills in the default superclass map.
tests/test_golden.py runs the same cases in process.

record(case, work) runs `fedtier run`, `report`, `cluster-diag --out
cluster_diag.json` and `adapt --epochs 5` in process in `work`, once at
`--workers 1` and once at `--workers 2`. It is also the determinism gate: it
raises RuntimeError unless `report` leaves metrics.json and metrics.csv
byte-unchanged, cluster_diag.json holds the bytes of clustering.json, and
every artifact except manifest.json has one digest at both worker counts.
It returns the case's record:
- config: the config the case ran;
- provenance: Python, numpy, numpy's BLAS name and version (as
  perfbench/run.py reads them) and the runtime configuration string of
  numpy's bundled OpenBLAS, which names the kernel core the bits depend on;
- sha256: the digest of every artifact except manifest.json, which holds
  the output path;
- exact: k_star, the labels and each unseen client's route;
- numbers: the values behind the artifacts at full precision, each a list:
  per-client accuracies (root, root+cluster, full) and gains, the mean
  accuracy, the clustering's eigenvalues and eigengaps, the orthogonality
  report's means and maxima (null for a pair with no client), each unseen
  client's adaptation accuracies, and the Frobenius norms of each
  checkpoint's factors (B then A for an adapter, the matrix for an EMA basis).
Only the standard library, numpy and the fedtier package next to this file
are used.
"""

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))
from fedtier import cli  # noqa: E402
from fedtier.lora import load_matrix, read_adapter  # noqa: E402

# each README case's federation overrides
_README_CASES = {
    "readme_full_32": {"batch_mode": "full", "batch_size": 32},
    "readme_mini_32": {"batch_mode": "mini", "batch_size": 32},
    "readme_mini_4096": {"batch_mode": "mini", "batch_size": 4096},
    "readme_mini_1": {"batch_mode": "mini", "batch_size": 1, "lr": 0.02},
    "readme_full_32_tleaf0": {"batch_mode": "full", "batch_size": 32, "t_leaf": 0,
                              "total_budget": 35},
}
_SC_DIR = {"federation": {"rank": 2, "t_root": 3, "t_cluster": 2, "t_leaf": 2,
                          "total_budget": 7, "lr": 0.1, "batch_mode": "full", "master_seed": 3,
                          "hidden_dim": 8},
           "data": {"kind": "sc_dir", "classes": 4, "feature_dim": 3, "per_class": 60,
                    "n_total": 8, "alpha": 0.5, "unseen_fraction": 0.25, "seed": 5}}
CASES = sorted([*_README_CASES, "sc_dir"])


def config(case: str) -> dict:
    """The config document of a case; the README cases start from the
    README's JSON config."""
    if case == "sc_dir":
        return json.loads(json.dumps(_SC_DIR))
    readme = (ROOT / "README.md").read_text()
    doc = json.loads(re.search(r"```json\n(.*?)```", readme, re.S)[1])
    doc["federation"].update(_README_CASES[case])
    return doc


def provenance() -> dict:
    """Python, numpy and BLAS versions, and the OpenBLAS runtime config
    (null when numpy does not bundle OpenBLAS)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # a numpy without mode="dicts"
        name = None
    try:
        get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_config64_
        get.argtypes, get.restype = [], ctypes.c_char_p
        openblas = get().decode()
    except (AttributeError, OSError):
        openblas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": name,
            "openblas_config": openblas}


def _fedtier(*argv: str):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"fedtier {' '.join(argv)} exited {code}")


def _norms(path: Path) -> list[float]:
    if path.suffix == ".adapter":
        ad = read_adapter(path)
        return [float(np.linalg.norm(ad.b)), float(np.linalg.norm(ad.a))]
    return [float(np.linalg.norm(load_matrix(path.read_text())))]


def _digests(cfg: Path, out: Path, workers: int) -> dict:
    """Run the four commands at `workers` into `out` and return the sha256
    of every artifact except manifest.json, which holds the output path;
    raise RuntimeError if a reload does not reproduce the run's bytes."""
    _fedtier("run", "--config", str(cfg), "--workers", str(workers), "--out", str(out))
    before = {name: (out / name).read_bytes() for name in ("metrics.json", "metrics.csv")}
    _fedtier("report", "--run", str(out))
    changed = [name for name, data in before.items() if (out / name).read_bytes() != data]
    if changed:
        raise RuntimeError(f"report rewrote {changed} of {out.name} at --workers {workers}")
    _fedtier("cluster-diag", "--run", str(out), "--out", str(out / "cluster_diag.json"))
    if (out / "cluster_diag.json").read_bytes() != (out / "clustering.json").read_bytes():
        raise RuntimeError(f"cluster-diag of {out.name} differs from clustering.json at "
                           f"--workers {workers}")
    _fedtier("adapt", "--run", str(out), "--epochs", "5")
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def record(case: str, work: Path) -> dict:
    """Run the case's four commands in `work` at one and two workers and
    return its record; raise RuntimeError unless both give the same files."""
    doc = config(case)
    cfg, out = work / f"{case}.json", work / case
    cfg.write_text(json.dumps(doc))
    digests = _digests(cfg, out, 1)
    other = _digests(cfg, work / f"{case}_w2", 2)
    moved = sorted(name for name in digests.keys() | other.keys()
                   if digests.get(name) != other.get(name))
    if moved:
        raise RuntimeError(f"{case}: {len(moved)} artifacts differ between --workers 1 and 2: "
                           f"{moved[:5]}")
    files = [out / name for name in digests]
    metrics = json.loads((out / "metrics.json").read_text())
    clustering = json.loads((out / "clustering.json").read_text())
    with (out / "adapt.csv").open(newline="") as fh:
        adapt = list(csv.DictReader(fh))
    unseen = sorted({int(row["client_id"]) for row in adapt})
    numbers = {key: [c[key] for c in metrics["clients"]]
               for key in ("accuracy", "accuracy_root", "accuracy_cluster", "gain_cluster",
                           "gain_leaf", "gain_cluster_own")}
    numbers["mean_accuracy"] = [metrics["mean_accuracy"]]
    numbers["eigenvalues"] = clustering["eigenvalues"]
    numbers["eigengaps"] = clustering["eigengaps"]
    for pair, stats in sorted(metrics["orthogonality"].items()):
        numbers[f"orthogonality_{pair}"] = [stats["mean"], stats["max"]]
    for u in unseen:
        numbers[f"adapt_{u}"] = [float(row["test_accuracy"]) for row in adapt
                                 if int(row["client_id"]) == u]
    for path in files:
        if path.parent.name == "checkpoints":
            numbers[f"norm_{path.name}"] = _norms(path)
    routes = [next(int(row["assigned_cluster"]) for row in adapt if int(row["client_id"]) == u)
              for u in unseen]
    return {
        "case": case, "config": doc, "provenance": provenance(),
        "sha256": digests,
        "exact": {"k_star": clustering["k_star"], "labels": clustering["labels"],
                  "routes": routes},
        "numbers": numbers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate every record in tests/golden")
    args = parser.parse_args(argv)
    if not args.write:
        parser.error("give --write")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            text = json.dumps(record(case, Path(tmp)), indent=1, sort_keys=True)
            (GOLDEN / f"{case}.json").write_text(text + "\n")
            print(f"wrote {(GOLDEN / f'{case}.json').relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
