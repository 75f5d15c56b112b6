"""tools/pairs.py runs the benchmark alternately in copies of a base ref and of
this checkout, side by side in directories whose names have one length,
stops at the first run that fails, and summarises every end-to-end metric:
both medians, their ratio, the pairs the change won and the base's
spread."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

END_TO_END = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]
METRICS = [{"name": "protocol_s", "better": "lower"},
           {"name": "train_samples_per_s", "better": "higher"}]


def result(**values):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": v} for name, v in values.items()}}


def row(lines, name):
    """The summary line of metric `name`, split into its columns."""
    [line] = [line for line in lines if line.split()[0] == name]
    return line.split()


def test_summary_gives_medians_ratio_wins_and_base_spread():
    canned = [(result(protocol_s=b, train_samples_per_s=tb),
               result(protocol_s=c, train_samples_per_s=tc))
              for b, c, tb, tc in [(1.0, 0.9, 10.0, 11.0), (2.0, 1.8, 20.0, 20.0),
                                   (3.0, 3.5, 30.0, 29.0), (4.0, 3.0, 40.0, 41.0),
                                   (5.0, 4.0, 50.0, 55.0)]]
    lines = pairs.summary(canned, METRICS)
    assert lines[0].split()[0] == "metric" and len(lines) == 1 + len(METRICS)
    # medians 3.0 and 3.0; lower is better: 4 of 5 pairs won; inclusive
    # quartiles of 1..5 are 2 and 4, so the base IQR is 2/3 of its median
    assert row(lines, "protocol_s") == ["protocol_s", "3", "3", "1.000", "4/5", "0.667"]
    # higher is better: a tie is not a win
    assert row(lines, "train_samples_per_s") == ["train_samples_per_s", "30", "29", "0.967",
                                                 "3/5", "0.667"]


def test_summary_of_one_pair_or_a_zero_median_gives_no_ratio_or_spread():
    one = pairs.summary([(result(protocol_s=0.0, train_samples_per_s=2.0),
                          result(protocol_s=0.5, train_samples_per_s=3.0))], METRICS)
    assert row(one, "protocol_s") == ["protocol_s", "0", "0.5", "n/a", "0/1", "n/a"]
    assert row(one, "train_samples_per_s")[3:] == ["1.500", "1/1", "n/a"]


def fake_runs(monkeypatch, fail=None):
    """Replace the extraction and the benchmark subprocess. Each run returns
    protocol_s 2.0 in the base tree and 1.0 here, every other end-to-end
    metric 1.0; the run numbered `fail` (0-based) exits 1 instead, or with
    fail=("incorrect", n) exits 0 but reports itself incorrect."""
    calls, trees = [], set()
    monkeypatch.setattr(pairs, "extract", lambda ref, dest: True)
    monkeypatch.setattr(pairs, "copy_checkout", lambda dest: True)

    def run(tree, workload, seconds, seed):
        side = "base" if tree.name == "base" else "change"
        trees.add(tree)
        calls.append((side, workload, seconds, seed))
        values = {m["name"]: 1.0 for m in END_TO_END}
        values["protocol_s"] = 1.0 if side == "change" else 2.0
        if fail == len(calls) - 1:
            return 1, None
        if fail == ("incorrect", len(calls) - 1):
            return 0, {"correct": False, "metrics": {}}
        return 0, result(**values)

    monkeypatch.setattr(pairs, "run_benchmark", run)
    return calls, trees


def test_runs_alternate_and_every_end_to_end_metric_is_printed(monkeypatch, capsys):
    calls, trees = fake_runs(monkeypatch)
    assert pairs.main(["--base", "HEAD~1", "--workload", "readme_full", "--pairs", "3",
                       "--seconds", "2", "--seed", "5"]) == 0
    assert [side for side, *_ in calls] == ["base", "change", "change", "base",
                                            "base", "change"]
    # both sides run from sibling copies whose paths differ only in their names
    base, change = sorted(trees, key=lambda tree: tree.name != "base")
    assert base.parent == change.parent != pairs.ROOT
    assert len(base.name) == len(change.name)
    assert {tuple(rest) for _, *rest in calls} == {("readme_full", 2.0, 5)}
    lines = capsys.readouterr().out.splitlines()
    for metric in END_TO_END:
        assert row(lines, metric["name"])[4] == ("3/3" if metric["name"] == "protocol_s"
                                                 else "0/3")
    assert row(lines, "protocol_s")[1:4] == ["2", "1", "0.500"]


@pytest.mark.parametrize("fail", [0, 3, ("incorrect", 2)])
def test_stops_at_the_first_failing_or_incorrect_run(monkeypatch, capsys, fail):
    calls, _ = fake_runs(monkeypatch, fail=fail)
    assert pairs.main(["--base", "HEAD", "--workload", "readme_full", "--pairs", "4"]) == 1
    stop = fail if isinstance(fail, int) else fail[1]
    assert len(calls) == stop + 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "base median" not in captured.out


def test_a_ref_that_cannot_be_extracted_fails(monkeypatch, capsys):
    monkeypatch.setattr(pairs, "extract", lambda ref, dest: False)
    monkeypatch.setattr(pairs, "run_benchmark", lambda *args: pytest.fail("ran a benchmark"))
    assert pairs.main(["--base", "no-such-ref", "--workload", "readme_full"]) == 1
    assert "no-such-ref" in capsys.readouterr().err


def test_a_checkout_that_cannot_be_copied_fails(monkeypatch, capsys):
    monkeypatch.setattr(pairs, "extract", lambda ref, dest: True)
    monkeypatch.setattr(pairs, "copy_checkout", lambda dest: False)
    monkeypatch.setattr(pairs, "run_benchmark", lambda *args: pytest.fail("ran a benchmark"))
    assert pairs.main(["--base", "HEAD", "--workload", "readme_full"]) == 1
    assert "git ls-files" in capsys.readouterr().err


@pytest.mark.skipif(shutil.which("git") is None, reason="no git")
def test_copy_checkout_copies_the_work_tree_as_it_stands(monkeypatch, tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "pkg").mkdir(parents=True)
    dest.mkdir()
    for name, text in {"pkg/kept.py": "committed", "gone.py": "x", ".gitignore": "*.log\n"}.items():
        (repo / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "."], cwd=repo, check=True)
    (repo / "pkg" / "kept.py").write_text("edited")
    (repo / "gone.py").unlink()
    (repo / "new.py").write_text("untracked")
    (repo / "out.log").write_text("ignored")
    monkeypatch.setattr(pairs, "ROOT", repo)
    assert pairs.copy_checkout(dest)
    copied = {p.relative_to(dest).as_posix(): p.read_text() for p in dest.rglob("*")
              if p.is_file()}
    assert copied == {"pkg/kept.py": "edited", "new.py": "untracked", ".gitignore": "*.log\n"}


@pytest.mark.skipif(not (TOOL.parents[1] / ".git").exists(), reason="not a git checkout")
def test_extract_writes_the_ref_tree_and_leaves_the_checkout_alone(tmp_path):
    def status():
        return subprocess.run(["git", "status", "--porcelain"], cwd=pairs.ROOT,
                              capture_output=True, text=True, check=True).stdout

    before = status()
    assert pairs.extract("HEAD", tmp_path)
    assert status() == before
    assert (tmp_path / "perfbench" / "run.py").is_file()
    assert not (tmp_path / ".git").exists()
    assert not pairs.extract("no-such-ref-anywhere", tmp_path / "missing")
