"""A fuzzer over whole run directories. Each case corrupts one file of a
small finished `run` + `adapt` directory and runs `report`, `cluster-diag
--out` and `adapt --epochs 1` on the result. Each command must return 0 (the
corruption did not matter) or 2 (it was refused with an `error:` line), and
none may raise.

A JSON file loses a key or list entry, or has one value swapped for a value
of another type, NaN, +-1e30 or a nested list. Checkpoint and other text is
truncated, has bytes edited, or gains rows."""

import json
import math
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from fedtier.cli import main

CASES = 100

SWAPS = st.one_of(
    st.sampled_from([math.nan, 1e30, -1e30, math.inf, None, True, False, 0, -1, 2.5, "", "x"]),
    st.recursive(st.integers(-2, 2) | st.floats(-2.0, 2.0),
                 lambda inner: st.lists(inner, max_size=3), max_leaves=6),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
ROW_ENTRY = st.one_of(st.integers(-3, 3), st.floats(), st.sampled_from(["x", "1e400", "-0"]))
EDIT_BYTES = st.one_of(st.sampled_from(list(b"0123456789.-+eE \nnaif")), st.integers(0, 255))


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    doc = {
        "federation": {"rank": 2, "t_root": 3, "t_cluster": 2, "t_leaf": 1, "total_budget": 6,
                       "lr": 0.05, "batch_mode": "full", "master_seed": 3, "hidden_dim": 8},
        "data": {"kind": "cluster_shift", "classes": 4, "feature_dim": 3, "per_class": 40,
                 "n_total": 6, "k_true": 2, "rotation_angle": 1.2, "label_subset_size": 2,
                 "unseen_fraction": 0.25, "seed": 4},
        "out_dir": str(root / "run"),
    }
    (root / "config.json").write_text(json.dumps(doc))
    assert main(["run", "--config", str(root / "config.json")]) == 0
    assert main(["adapt", "--run", str(root / "run"), "--epochs", "1"]) == 0
    return root / "run"


def _files(run_dir):
    return sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*") if p.is_file())


def _edit_json(draw, doc):
    """Delete one entry of doc, or swap one value, at a drawn depth."""
    holder, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (holder is None or draw(st.booleans())):
        holder = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = holder[key]
    if holder is None:
        return draw(SWAPS)
    if draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = draw(SWAPS)
    return doc


def _edit_text(draw, text: bytes) -> bytes:
    how = draw(st.sampled_from(["truncate", "edit", "append"]))
    if how == "truncate":
        return text[:draw(st.integers(0, max(len(text) - 1, 0)))]
    if how == "edit":
        out = bytearray(text)
        for _ in range(draw(st.integers(1, 3))):
            out[draw(st.integers(0, len(out) - 1))] = draw(EDIT_BYTES)
        return bytes(out)
    rows = draw(st.lists(st.lists(ROW_ENTRY, min_size=1, max_size=5), min_size=1, max_size=3))
    return text + "".join(" ".join(map(str, row)) + "\n" for row in rows).encode()


@settings(max_examples=CASES, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_corrupted_run_dir_exits_0_or_2(base_run, data):
    case = base_run.parent / "case"
    shutil.rmtree(case, ignore_errors=True)
    shutil.copytree(base_run, case)
    files = _files(case)
    read = ["manifest.json", "clustering.json"] + [f for f in files if f.startswith("checkpoints")]
    name = data.draw(st.one_of(st.sampled_from(read[:2]), st.sampled_from(read),
                               st.sampled_from(files)), label="file")
    path = case / name
    if name.endswith(".json"):
        path.write_text(json.dumps(_edit_json(data.draw, json.loads(path.read_text()))))
    else:
        path.write_bytes(_edit_text(data.draw, path.read_bytes()))
    for argv in (["report", "--run", str(case)],
                 ["cluster-diag", "--run", str(case), "--out", str(case.parent / "diag.json")],
                 ["adapt", "--run", str(case), "--epochs", "1"]):
        assert main(argv) in (0, 2), argv
