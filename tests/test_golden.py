"""The golden run record: each case of tools/golden.py, run in process at one
and two workers, must give the same files at both, reload to the same
metrics and clustering bytes, and reproduce its committed record in
tests/golden.

Under the provenance a record was made with (Python, numpy, BLAS and the
OpenBLAS kernel core), every artifact's sha256 must match. Under any other,
k_star, the labels and the routes must match exactly and the numbers within
RTOL/ATOL. That tolerance is a stated bound, not a measured one: the records
were made on one numpy and OpenBLAS build. A change that moves bits
regenerates the records (python3 tools/golden.py --write) and says which
case and field moved, and by how much.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)

RTOL, ATOL = 1e-6, 1e-9


def test_records_and_cases_are_one_list():
    assert sorted(p.stem for p in golden.GOLDEN.glob("*.json")) == golden.CASES


# each fault: the command after which it strikes, the file it appends to and
# the refusal it must meet
FAULTS = {"an artifact that depends on the worker count": ("run", "roundlog.csv", "differ"),
          "report rewriting the metrics": ("report", "metrics.json", "report rewrote"),
          "cluster-diag writing other bytes": ("cluster-diag", "cluster_diag.json",
                                               "cluster-diag")}


@pytest.mark.parametrize("command, name, refusal", FAULTS.values(), ids=list(FAULTS))
def test_record_refuses_a_case_its_reloads_or_worker_counts_do_not_reproduce(
        monkeypatch, tmp_path, command, name, refusal):
    real = golden._fedtier

    def faulty(*argv):
        real(*argv)
        if argv[0] == command:
            run = Path(argv[argv.index("--out" if command == "run" else "--run") + 1])
            with (run / name).open("a") as fh:
                fh.write(argv[argv.index("--workers") + 1] if command == "run" else "\n")

    monkeypatch.setattr(golden, "_fedtier", faulty)
    with pytest.raises(RuntimeError, match=refusal):
        golden.record("sc_dir", tmp_path)


@pytest.mark.parametrize("case", golden.CASES)
def test_run_matches_its_golden_record(case, tmp_path):
    want = json.loads((golden.GOLDEN / f"{case}.json").read_text())
    got = golden.record(case, tmp_path)
    assert got["config"] == want["config"]
    assert got["exact"] == want["exact"]
    assert got["numbers"].keys() == want["numbers"].keys()
    if got["provenance"] == want["provenance"]:
        moved = sorted(name for name in want["sha256"].keys() | got["sha256"].keys()
                       if got["sha256"].get(name) != want["sha256"].get(name))
        assert not moved, f"{len(moved)} artifacts differ from the golden record: {moved[:5]}"
    for name, values in want["numbers"].items():
        assert [v is None for v in got["numbers"][name]] == [v is None for v in values], name
        kept = [(g, w) for g, w in zip(got["numbers"][name], values) if w is not None]
        np.testing.assert_allclose(*zip(*kept) if kept else ([], []), rtol=RTOL, atol=ATOL,
                                   err_msg=name)
