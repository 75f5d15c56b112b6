import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import fedtier.cli
from fedtier.cli import main
from fedtier.datagen import gen_pool, load_csv
from fedtier.model import Samples


def write_config(tmp_path, **overrides):
    doc = {
        "federation": {"rank": 2, "t_root": 4, "t_cluster": 3, "t_leaf": 2,
                       "total_budget": 9, "lr": 0.05, "batch_mode": "full",
                       "master_seed": 3, "hidden_dim": 12},
        "data": {"kind": "cluster_shift", "classes": 6, "feature_dim": 6,
                 "per_class": 120, "separation": 3.0, "n_total": 10,
                 "k_true": 2, "rotation_angle": 1.2, "label_subset_size": 2,
                 "unseen_fraction": 0.2, "seed": 4},
        "out_dir": str(tmp_path / "run"),
    }
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            doc[section][field] = value
        else:
            doc[section] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def write_csv(path, client_ids, samples):
    """One CSV row per sample, features printed to round-trip exactly."""
    d = samples.x.shape[1]
    np.savetxt(path, np.column_stack([client_ids, samples.y, samples.x]), delimiter=",",
               fmt=["%d", "%d"] + ["%.17g"] * d, comments="",
               header=",".join(["client_id", "label"] + [f"f{i}" for i in range(d)]))


class TestRun:
    def test_minimal_run_writes_declared_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        run_dir = tmp_path / "run"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["federation"]["n_clients"] == 8
        for rel in manifest["files"]:
            assert (run_dir / rel).exists(), rel

    def test_roundlog_schema(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg)])
        rows = read_rows(tmp_path / "run" / "roundlog.csv")
        assert list(rows[0]) == ["stage", "round", "cluster", "rho",
                                 "weighted_train_loss", "stopped"]
        stages = {r["stage"] for r in rows}
        assert stages == {"root", "cluster", "leaf"}
        assert all(r["cluster"] == "-1" for r in rows if r["stage"] == "root")

    def test_non_finite_lr_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"federation.lr": float("nan")})
        assert main(["run", "--config", str(cfg)]) == 2
        assert "lr" in capsys.readouterr().err

    def test_budget_mismatch_names_the_rule(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"federation.t_leaf": 5})
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "total_budget" in err

    def test_unknown_field_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"federation.learning_rate": 0.1})
        assert main(["run", "--config", str(cfg)]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_same_config_and_seed_reproduces_metrics_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_pool_too_small_to_partition_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, data={"kind": "gl_dir", "classes": 4, "feature_dim": 4,
                                           "per_class": 5, "n_total": 10, "alpha": 0.5})
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "pool too small" in err

    def test_n_clients_must_match_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"federation.n_clients": 10})
        assert main(["run", "--config", str(cfg)]) == 2
        assert "n_clients" in capsys.readouterr().err


GL_DIR_WITHOUT_ALPHA = {"kind": "gl_dir", "classes": 4, "feature_dim": 4,
                        "per_class": 60, "n_total": 6}

# wrongly typed or out-of-range config values: (overrides, field the error names)
BAD_CONFIG_VALUES = {
    "master_seed_string": ({"federation.master_seed": "abc"}, "master_seed"),
    "master_seed_negative": ({"federation.master_seed": -1}, "master_seed"),
    "data_seed_negative": ({"data.seed": -1}, "seed"),
    "unseen_fraction_string": ({"data.unseen_fraction": "x"}, "unseen_fraction"),
    "classes_string": ({"data.classes": "six"}, "classes"),
    "rotation_angle_string": ({"data.rotation_angle": "wide"}, "rotation_angle"),
    "k_true_fractional": ({"data.k_true": 2.5}, "k_true"),
    "rank_fractional": ({"federation.rank": 2.5}, "rank"),
    "batch_size_fractional": ({"federation.batch_size": 4.5}, "batch_size"),
    "hidden_dim_fractional": ({"federation.hidden_dim": 8.5}, "hidden_dim"),
    "local_epochs_fractional": ({"federation.local_epochs": 1.5}, "local_epochs"),
    "t_root_float": ({"federation.t_root": 4.0}, "t_root"),
    "k_max_fractional": ({"federation.k_max": 3.5}, "k_max"),
    "workers_fractional": ({"federation.workers": 1.5}, "workers"),
    "probe_steps_fractional": ({"federation.probe_steps": 2.5}, "probe_steps"),
    "data_section_a_list": ({"data": [1, 2]}, "data"),
    "federation_section_a_list": ({"federation": [1, 2]}, "federation"),
    "gl_dir_without_alpha": ({"data": GL_DIR_WITHOUT_ALPHA}, "alpha"),
    "gl_dir_nan_alpha": ({"data": dict(GL_DIR_WITHOUT_ALPHA, alpha=float("nan"))}, "alpha"),
    "superclasses_fractional": ({"data": dict(GL_DIR_WITHOUT_ALPHA, kind="sc_dir", alpha=1.0,
                                              superclasses=[0, 0.5, 1, 1])}, "superclasses"),
    "out_dir_a_number": ({"out_dir": 5}, "out_dir"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_bad_config_value_exits_2_naming_the_field(tmp_path, capsys, case):
    overrides, name = BAD_CONFIG_VALUES[case]
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


@pytest.mark.parametrize("seed", ["7", "-1"])
def test_seed_override_with_a_bad_federation_section_exits_2(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, federation=[1, 2])
    assert main(["run", "--config", str(cfg), "--seed", seed]) == 2
    assert capsys.readouterr().err.startswith("error: the federation section")


class TestReport:
    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg)])
        run_dir = tmp_path / "run"
        before_csv = (run_dir / "metrics.csv").read_bytes()
        before_json = (run_dir / "metrics.json").read_bytes()
        assert main(["report", "--run", str(run_dir)]) == 0
        assert (run_dir / "metrics.csv").read_bytes() == before_csv
        assert (run_dir / "metrics.json").read_bytes() == before_json

    @pytest.mark.parametrize("corruption", ["ragged_row", "non_ascii_byte"])
    def test_corrupted_checkpoint_fails_cleanly(self, tmp_path, capsys, corruption):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg)])
        leaf = tmp_path / "run" / "checkpoints" / "leaf_0.adapter"
        lines = leaf.read_text().splitlines()
        if corruption == "ragged_row":
            lines[1] += " 0.5"
        else:
            lines[1] = "\xff" + lines[1]
        leaf.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        capsys.readouterr()
        assert main(["report", "--run", str(tmp_path / "run")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_root_only_run_reports_zero_gains(self, tmp_path):
        cfg = write_config(tmp_path, **{"federation.t_cluster": 0,
                                        "federation.t_leaf": 0,
                                        "federation.t_root": 9})
        main(["run", "--config", str(cfg)])
        rows = read_rows(tmp_path / "run" / "metrics.csv")
        assert len(rows) == 8
        assert all(float(r["G_c"]) == 0.0 and float(r["G_l"]) == 0.0 for r in rows)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("finished")
    assert main(["run", "--config", str(write_config(tmp_path))]) == 0
    return tmp_path / "run"


def edit_json(path, edit):
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))


def drop(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


def add_bogus_federation_field(doc):
    doc["config"]["federation"]["bogus"] = 1
    return doc


RUN_DIR_FAULTS = {
    "unknown_federation_field": ("manifest.json", add_bogus_federation_field),
    "manifest_without_config": ("manifest.json", drop("config")),
    "manifest_is_a_list": ("manifest.json", lambda doc: [doc]),
    "clustering_without_labels": ("clustering.json", drop("labels")),
    "too_few_cluster_labels": ("clustering.json",
                               lambda doc: dict(doc, labels=doc["labels"][:3])),
    "missing_cluster_adapter": ("checkpoints/cluster_0.adapter", None),
    "missing_ema_basis": ("checkpoints/ema_3.matrix", None),
    "non_numeric_cluster_label": ("clustering.json",
                                  lambda doc: dict(doc, labels=["a"] + doc["labels"][1:])),
    "non_numeric_sigma": ("clustering.json", lambda doc: dict(doc, sigma="wide")),
}


@pytest.mark.parametrize("fault", sorted(RUN_DIR_FAULTS))
def test_edited_run_dir_fails_cleanly(finished_run, tmp_path, capsys, fault):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    name, edit = RUN_DIR_FAULTS[fault]
    if edit is None:
        (run_dir / name).unlink()
    else:
        edit_json(run_dir / name, edit)
    for command in ("report", "adapt", "cluster-diag"):
        capsys.readouterr()
        assert main([command, "--run", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_stray_checkpoint_files_are_ignored(finished_run, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    ck = run_dir / "checkpoints"
    shutil.copy(ck / "cluster_0.adapter", ck / "cluster_old.adapter")
    shutil.copy(ck / "ema_0.matrix", ck / "ema_old.matrix")
    assert main(["report", "--run", str(run_dir)]) == 0
    assert (run_dir / "metrics.csv").read_bytes() == (finished_run / "metrics.csv").read_bytes()
    capsys.readouterr()
    assert main(["cluster-diag", "--run", str(run_dir)]) == 0
    assert capsys.readouterr().out == (run_dir / "clustering.json").read_text()


class TestClusterDiag:
    def test_json_matches_run_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg)])
        run_dir = tmp_path / "run"
        capsys.readouterr()  # drop the run command's own output
        assert main(["cluster-diag", "--run", str(run_dir)]) == 0
        recomputed = json.loads(capsys.readouterr().out)
        stored = json.loads((run_dir / "clustering.json").read_text())
        for key in ("k_star", "sigma", "eigenvalues", "eigengaps", "labels",
                    "distance_matrix"):
            assert key in recomputed
        assert recomputed["k_star"] == stored["k_star"]
        assert recomputed["labels"] == stored["labels"]

    def test_two_client_run_reproduces_its_single_cluster(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"data.n_total": 2, "data.unseen_fraction": 0.0})
        assert main(["run", "--config", str(cfg)]) == 0
        run_dir = tmp_path / "run"
        stored = (run_dir / "clustering.json").read_text()
        assert json.loads(stored)["degenerate"] is True
        capsys.readouterr()
        assert main(["cluster-diag", "--run", str(run_dir)]) == 0
        assert capsys.readouterr().out == stored

    def test_missing_run_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["cluster-diag", "--run", str(tmp_path / "nope")]) == 2

    def test_latent_three_group_run_reports_k_star_three(self, tmp_path, capsys):
        doc = {
            "federation": {"rank": 2, "t_root": 8, "t_cluster": 4, "t_leaf": 3,
                           "total_budget": 15, "lr": 0.1, "local_epochs": 4,
                           "ema_decay": 0.97, "batch_mode": "full",
                           "master_seed": 0, "hidden_dim": 24},
            "data": {"kind": "cluster_shift", "classes": 12, "feature_dim": 8,
                     "per_class": 160, "separation": 3.0, "n_total": 15,
                     "k_true": 3, "rotation_angle": 1.6, "label_subset_size": 3,
                     "unseen_fraction": 0.0, "seed": 40},
            "out_dir": str(tmp_path / "shift"),
        }
        cfg = tmp_path / "shift.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["cluster-diag", "--run", str(tmp_path / "shift")]) == 0
        diag = json.loads(capsys.readouterr().out)
        assert diag["k_star"] == 3
        assert len(diag["affinity_matrix"]) == 15


class TestAdapt:
    def test_emits_per_epoch_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg)])
        run_dir = tmp_path / "run"
        assert main(["adapt", "--run", str(run_dir), "--epochs", "2"]) == 0
        rows = read_rows(run_dir / "adapt.csv")
        assert list(rows[0]) == ["client_id", "assigned_cluster", "epoch",
                                 "test_accuracy"]
        assert len(rows) == 2 * 3  # 2 unseen clients x (epochs + 1)
        assert [r["epoch"] for r in rows if r["client_id"] == "0"] == ["0", "1", "2"]

    def test_run_without_cluster_stage_cannot_route(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"federation.t_root": 5, "federation.t_cluster": 0,
                                        "federation.t_leaf": 4})
        assert main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["adapt", "--run", str(tmp_path / "run")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failed_adapt_keeps_an_earlier_adapt_csv(self, tmp_path):
        cfg = write_config(tmp_path, **{"federation.t_root": 5, "federation.t_cluster": 0,
                                        "federation.t_leaf": 4})
        assert main(["run", "--config", str(cfg)]) == 0
        earlier = b"client_id,assigned_cluster,epoch,test_accuracy\r\n0,1,0,0.5\r\n"
        adapt_csv = tmp_path / "run" / "adapt.csv"
        adapt_csv.write_bytes(earlier)
        assert main(["adapt", "--run", str(tmp_path / "run")]) == 2
        assert adapt_csv.read_bytes() == earlier


class TestGradcheck:
    def test_passes_and_prints(self, capsys):
        assert main(["gradcheck", "--trials", "6"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_a_usage_error(self, capsys, trials):
        assert main(["gradcheck", "--trials", trials]) == 2
        assert capsys.readouterr().err.startswith("error:")


def write_csv_config(tmp_path):
    """A CSV of 4 clients and a config that runs it into tmp_path/csvrun."""
    pool = gen_pool(4, 3, 40, 3.0, seed=8)
    csv_path = tmp_path / "pool.csv"
    write_csv(csv_path, np.arange(len(pool.samples)) % 4, pool.samples)
    doc = {
        "federation": {"rank": 2, "t_root": 3, "t_cluster": 2, "t_leaf": 1,
                       "total_budget": 6, "lr": 0.05, "batch_mode": "full",
                       "master_seed": 1, "hidden_dim": 8},
        "data": {"kind": "csv", "path": str(csv_path), "seed": 2},
        "out_dir": str(tmp_path / "csvrun"),
    }
    cfg = tmp_path / "csv_config.json"
    cfg.write_text(json.dumps(doc))
    return cfg


class TestCsvDataKind:
    def test_end_to_end_from_csv(self, tmp_path):
        cfg = write_csv_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        rows = read_rows(tmp_path / "csvrun" / "metrics.csv")
        assert len(rows) == 4

    def test_csv_is_read_once_per_command(self, tmp_path, monkeypatch):
        cfg = write_csv_config(tmp_path)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(fedtier.cli, "load_csv", counted)
        assert main(["run", "--config", str(cfg)]) == 0
        assert len(calls) == 1
        calls.clear()
        assert main(["report", "--run", str(tmp_path / "csvrun")]) == 0
        assert len(calls) == 1

    def test_non_finite_feature_fails_naming_the_line(self, tmp_path, capsys):
        pool = gen_pool(2, 2, 10, 3.0, seed=8)
        x = pool.samples.x.copy()
        x[6, 1] = np.nan
        csv_path = tmp_path / "pool.csv"
        write_csv(csv_path, np.arange(20) % 2, Samples(x, pool.samples.y))
        cfg = tmp_path / "csv_config.json"
        cfg.write_text(json.dumps({"data": {"kind": "csv", "path": str(csv_path)}}))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "line 8" in err
