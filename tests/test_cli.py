import csv
import json
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fedtier.adaptation
import fedtier.cli
import fedtier.errors
import fedtier.federation
import fedtier.metrics
import fedtier.model
from fedtier.cli import (_clustering_payload, _json_text, _materialize_config,
                         _reload_federation, main)
from fedtier.clustering import ClusterAssignment
from fedtier.datagen import (ClusterShift, GlDir, Patho, ScDir, gen_pool, load_csv,
                             partition, split_unseen)
from fedtier.federation import run_protocol
from fedtier.lora import Tier
from fedtier.metrics import compute_metrics
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

    @pytest.mark.parametrize("rank,hidden_dim", [(7, 12), (3, 2)])
    def test_a_rank_the_model_cannot_hold_names_the_field(self, tmp_path, capsys, rank,
                                                          hidden_dim):
        # 6 classes: rank 7 exceeds the class count, rank 3 a hidden_dim of 2
        cfg = write_config(tmp_path, **{"federation.rank": rank,
                                        "federation.hidden_dim": hidden_dim})
        _, config, data = _materialize_config(json.loads(cfg.read_text()))
        with pytest.raises(fedtier.errors.ConfigurationError,
                           match=rf"rank={rank} exceeds min\(class count, hidden_dim\)"):
            run_protocol(config, data)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rank" in err and "hidden_dim" in err

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

    def test_a_pool_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # 10^15 rows per class need petabytes: the allocation itself fails,
        # with nothing the OS could overcommit and then fill
        cfg = write_config(tmp_path, **{"data.per_class": 10**15})
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory:") and err.count("\n") == 1
        assert "Traceback" not in err and not (tmp_path / "run").exists()

    def test_n_clients_must_match_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"federation.n_clients": 10})
        assert main(["run", "--config", str(cfg)]) == 2
        assert "n_clients" in capsys.readouterr().err

    def test_integer_past_the_json_digit_limit_fails_cleanly(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace('"lr": 0.05', '"lr": ' + "1" * 5000))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_digit_limit_message_names_the_integer(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace('"lr": 0.05', '"lr": ' + "1" * 5000))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error: config.json holds an integer with too many digits\n"

    def test_deeply_nested_config_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[" * 200_000)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


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
    "aggregation_mode_removed": ({"federation.aggregation_mode": "product_svd"},
                                 "aggregation_mode"),
    "probe_steps_removed": ({"federation.probe_steps": 20}, "probe_steps"),
    "workers_fractional": ({"federation.workers": 1.5}, "workers"),
    "data_section_a_list": ({"data": [1, 2]}, "data"),
    "federation_section_a_list": ({"federation": [1, 2]}, "federation"),
    "gl_dir_without_alpha": ({"data": GL_DIR_WITHOUT_ALPHA}, "alpha"),
    "gl_dir_nan_alpha": ({"data": dict(GL_DIR_WITHOUT_ALPHA, alpha=float("nan"))}, "alpha"),
    "superclasses_fractional": ({"data": dict(GL_DIR_WITHOUT_ALPHA, kind="sc_dir", alpha=1.0,
                                              superclasses=[0, 0.5, 1, 1])}, "superclasses"),
    "out_dir_a_number": ({"out_dir": 5}, "out_dir"),
    "patho_classes_per_client_fractional": (
        {"data": dict(GL_DIR_WITHOUT_ALPHA, kind="patho", classes_per_client=1.5)},
        "classes_per_client"),
    "label_subset_size_bool": ({"data.label_subset_size": True}, "label_subset_size"),
    "sc_dir_alpha_string": ({"data": dict(GL_DIR_WITHOUT_ALPHA, kind="sc_dir", alpha="x")},
                            "alpha"),
    "patho_without_classes_per_client": ({"data": dict(GL_DIR_WITHOUT_ALPHA, kind="patho")},
                                         "classes_per_client"),
    "t_root_zero": ({"federation.t_root": 0, "federation.total_budget": 5}, "t_root"),
    "k_min_above_n_clients_minus_one": ({"federation.k_min": 8}, "k_min"),
    "data_path_nul_byte": ({"data": {"kind": "csv", "path": "pool\u0000.csv"}}, "data.path"),
    "out_dir_nul_byte": ({"out_dir": "run\u0000"}, "out_dir"),
    "lr_past_the_float_range": ({"federation.lr": 10**400}, "lr"),
    "gamma_c_past_the_float_range": ({"federation.gamma_c": 10**400}, "gamma_c"),
    "eps_past_the_float_range": ({"federation.eps": 10**400}, "eps"),
    "rotation_angle_past_the_float_range": ({"data.rotation_angle": -10**400}, "rotation_angle"),
    "separation_past_the_float_range": ({"data.separation": 10**400}, "separation"),
    "gl_dir_alpha_past_the_float_range": ({"data": dict(GL_DIR_WITHOUT_ALPHA, alpha=10**400)},
                                          "alpha"),
    "csv_with_classes": ({"data": {"kind": "csv", "path": "pool.csv", "classes": 0}}, "classes"),
    "csv_with_feature_dim": ({"data": {"kind": "csv", "path": "pool.csv", "feature_dim": 3}},
                             "feature_dim"),
    "csv_with_per_class": ({"data": {"kind": "csv", "path": "pool.csv", "per_class": -5}},
                           "per_class"),
    "csv_with_separation": ({"data": {"kind": "csv", "path": "pool.csv", "separation": 3.0}},
                            "separation"),
    # the data section's generator fields are checked under their own names
    "classes_zero": ({"data.classes": 0}, "data.classes"),
    "feature_dim_zero": ({"data.feature_dim": 0}, "data.feature_dim"),
    "per_class_negative": ({"data.per_class": -5}, "data.per_class"),
    "n_total_zero": ({"data.n_total": 0}, "data.n_total"),
    "separation_negative": ({"data.separation": -1.0}, "data.separation"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_bad_config_value_exits_2_naming_the_field(tmp_path, capsys, case):
    overrides, name = BAD_CONFIG_VALUES[case]
    cfg = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err


def test_workers_override_is_checked_and_recorded(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--workers", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "workers" in err
    assert main(["run", "--config", str(cfg), "--workers", "3"]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config"]["federation"]["workers"] == 3


# each partition kind's config, and the library calls it must amount to
KIND_TABLE_CASES = {
    "gl_dir_integer_alpha": (
        {"kind": "gl_dir", "classes": 4, "feature_dim": 4, "per_class": 60, "n_total": 6,
         "alpha": 1, "unseen_fraction": 0.2, "seed": 5},
        lambda: (gen_pool(4, 4, 60, 3.0, seed=5), GlDir(1.0), 6, 0.2, 5)),
    "sc_dir_superclasses": (
        {"kind": "sc_dir", "classes": 4, "feature_dim": 3, "per_class": 60, "n_total": 5,
         "alpha": 0.5, "superclasses": [0, 0, 1, 1], "separation": 2.0, "seed": 6},
        lambda: (gen_pool(4, 3, 60, 2.0, seed=6), ScDir(0.5, (0, 0, 1, 1)), 5, 0.0, 6)),
    "sc_dir_default_map": (
        {"kind": "sc_dir", "classes": 4, "feature_dim": 3, "per_class": 60, "n_total": 5,
         "alpha": 2.0, "unseen_fraction": 0.4, "seed": 7},
        lambda: (gen_pool(4, 3, 60, 3.0, seed=7), ScDir(2.0), 5, 0.4, 7)),
    "patho": (
        {"kind": "patho", "classes": 6, "feature_dim": 4, "per_class": 40, "n_total": 6,
         "classes_per_client": 2, "unseen_fraction": 0.3, "seed": 8},
        lambda: (gen_pool(6, 4, 40, 3.0, seed=8), Patho(2), 6, 0.3, 8)),
    "cluster_shift": (
        {"kind": "cluster_shift", "classes": 6, "feature_dim": 6, "per_class": 60,
         "n_total": 8, "k_true": 2, "rotation_angle": 1.2, "label_subset_size": 2,
         "unseen_fraction": 0.25, "seed": 9},
        lambda: (gen_pool(6, 6, 60, 3.0, seed=9), ClusterShift(2, 1.2, 2), 8, 0.25, 9)),
}


@pytest.mark.parametrize("case", sorted(KIND_TABLE_CASES))
def test_kind_table_builds_the_library_data(case):
    data_section, library = KIND_TABLE_CASES[case]
    _, config, built = _materialize_config({"data": data_section})
    pool, spec, n_total, fraction, seed = library()
    expected = partition(pool, spec, n_total, seed=seed)
    if fraction > 0:
        expected = split_unseen(expected, fraction, seed=seed)
    assert config.n_clients == len(expected.clients)
    for got, want in ((built.clients, expected.clients), (built.unseen, expected.unseen)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.true_cluster == b.true_cluster
            for split in ("train", "test"):
                assert np.array_equal(getattr(a, split).x, getattr(b, split).x)
                assert np.array_equal(getattr(a, split).y, getattr(b, split).y)


# each kind's minimal data section (its required fields only) and the data
# keys its manifest must hold: every field of the kind, defaults included
POOL_KEYS = {"classes", "feature_dim", "per_class", "n_total", "separation"}
MINIMAL_DATA_SECTIONS = {
    "gl_dir": ({"classes": 4, "feature_dim": 3, "per_class": 60, "n_total": 6, "alpha": 1.0},
               POOL_KEYS | {"alpha"}),
    "sc_dir": ({"classes": 4, "feature_dim": 3, "per_class": 60, "n_total": 6, "alpha": 0.5},
               POOL_KEYS | {"alpha", "superclasses"}),
    "patho": ({"classes": 6, "feature_dim": 4, "per_class": 40, "n_total": 6,
               "classes_per_client": 2}, POOL_KEYS | {"classes_per_client"}),
    "cluster_shift": ({"classes": 6, "feature_dim": 6, "per_class": 60, "n_total": 8,
                       "k_true": 2, "rotation_angle": 1.2, "label_subset_size": 2},
                      POOL_KEYS | {"k_true", "rotation_angle", "label_subset_size"}),
    "csv": ({}, {"path", "n_total"}),
}


@pytest.mark.parametrize("kind", sorted(MINIMAL_DATA_SECTIONS))
def test_manifest_holds_every_data_field_of_its_kind(tmp_path, kind):
    section, own = MINIMAL_DATA_SECTIONS[kind]
    section = dict(section, kind=kind)
    if kind == "csv":
        section["path"] = json.loads(write_csv_config(tmp_path).read_text())["data"]["path"]
    doc, _, built = _materialize_config({"data": section})
    data = doc["config"]["data"]
    assert set(data) == own | {"kind", "seed", "unseen_fraction"}
    assert data["seed"] == 0 and data["unseen_fraction"] == 0.0
    assert data["n_total"] == len(built.clients) + len(built.unseen)
    if kind == "csv":
        assert data["n_total"] == 4
    else:
        assert data["separation"] == 3.0
    if kind == "sc_dir":
        assert data["superclasses"] is None


def test_sc_dir_manifest_without_superclasses_still_reloads(tmp_path):
    """A manifest that leaves out the superclasses default, as those written
    before the manifest held every default do, reloads to the same run."""
    cfg = write_config(tmp_path, data={"kind": "sc_dir", "classes": 4, "feature_dim": 3,
                                       "per_class": 60, "n_total": 8, "alpha": 0.5,
                                       "unseen_fraction": 0.25})
    assert main(["run", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "run"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["data"].pop("superclasses") is None
    (run_dir / "manifest.json").write_text(_json_text(manifest), encoding="ascii")
    metrics = {name: (run_dir / name).read_bytes() for name in ("metrics.csv", "metrics.json")}
    assert main(["report", "--run", str(run_dir)]) == 0
    assert {name: (run_dir / name).read_bytes() for name in metrics} == metrics
    assert main(["cluster-diag", "--run", str(run_dir)]) == 0
    assert main(["adapt", "--run", str(run_dir), "--epochs", "1"]) == 0


def test_a_manifest_holding_probe_steps_is_refused_by_name(finished_run, tmp_path, capsys):
    """A manifest written while the config still had probe_steps names the
    removed field instead of reloading under another routing rule."""
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)

    def old_manifest(doc):
        doc["config"]["federation"]["probe_steps"] = 20
        return doc

    edit_json(run_dir / "manifest.json", old_manifest)
    for command in ("report", "adapt", "cluster-diag"):
        capsys.readouterr()
        assert main([command, "--run", str(run_dir)]) == 2
        assert "unknown field 'federation.probe_steps'" in capsys.readouterr().err


def test_readme_config_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    _, config, data = _materialize_config(json.loads(block))
    assert config.n_clients == len(data.clients) == 30
    assert len(data.unseen) == 10


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


# each metrics.json client key and the MetricsReport field it holds, and
# each metrics.csv header and the client key its column copies
METRICS_CLIENT_KEYS = {"id": "client_ids", "cluster": "clusters", "accuracy": "accuracies",
                       "accuracy_root": "accuracies_root",
                       "accuracy_cluster": "accuracies_cluster",
                       "gain_cluster": "gains_cluster", "gain_leaf": "gains_leaf",
                       "gain_cluster_own": "gains_cluster_own"}
METRICS_CSV_COLUMNS = {"client_id": "id", "cluster": "cluster", "acc": "accuracy",
                       "G_c": "gain_cluster", "G_l": "gain_leaf"}
METRICS_SUMMARIES = {"mean_accuracy", "worst_decile_accuracy", "per_cluster_accuracy",
                     "stage_mean_accuracy", "orthogonality", "ari", "nmi"}


def test_metrics_files_hold_the_report_client_by_client(finished_run):
    report = compute_metrics(_reload_federation(finished_run))
    payload = json.loads((finished_run / "metrics.json").read_text())
    assert set(payload) == {"clients"} | METRICS_SUMMARIES
    assert payload["mean_accuracy"] == report.mean_accuracy
    assert payload["worst_decile_accuracy"] == report.worst_decile_accuracy
    assert payload["stage_mean_accuracy"] == report.stage_mean_accuracy
    assert payload["per_cluster_accuracy"] == {str(j): acc for j, acc in
                                               report.per_cluster_accuracy.items()}
    assert (payload["ari"], payload["nmi"]) == (report.ari, report.nmi)
    records = payload["clients"]
    assert len(records) == len(report.client_ids) == 8
    for i, record in enumerate(records):
        assert set(record) == set(METRICS_CLIENT_KEYS)
        for key, name in METRICS_CLIENT_KEYS.items():
            value = getattr(report, name)[i]
            assert record[key] == value and type(record[key]) is type(value), key
    with (finished_run / "metrics.csv").open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(METRICS_CSV_COLUMNS)
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        parsed = [int(row[0]), int(row[1]), *map(float, row[2:])]
        assert parsed == [record[key] for key in METRICS_CSV_COLUMNS.values()]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("finished")
    assert main(["run", "--config", str(write_config(tmp_path))]) == 0
    return tmp_path / "run"


def edit_json(path, edit):
    """Write back edit(document); an edit that returns a str gives the new text."""
    doc = edit(json.loads(path.read_text()))
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))


def drop(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


def add_bogus_federation_field(doc):
    doc["config"]["federation"]["bogus"] = 1
    return doc


def set_data_field(key, value):
    def edit(doc):
        doc["config"]["data"][key] = value
        return doc
    return edit


def drop_last_entry_of_later_rows(doc):
    first, *rest = doc["distance_matrix"]
    return dict(doc, distance_matrix=[first] + [row[:-1] for row in rest])


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
    "clustering_without_k_range": ("clustering.json", drop("k_range")),
    "clustering_without_affinity_matrix": ("clustering.json", drop("affinity_matrix")),
    "clustering_without_degenerate": ("clustering.json", drop("degenerate")),
    "fractional_k_true": ("manifest.json", set_data_field("k_true", 2.5)),
    "deeply_nested_manifest": ("manifest.json", lambda doc: "[" * 200_000),
    "deeply_nested_clustering": ("clustering.json", lambda doc: "[" * 200_000),
    "integer_past_the_digit_limit": ("manifest.json",
                                     lambda doc: json.dumps(dict(doc, files="N"))
                                     .replace('"N"', "1" * 5000)),
    "clustering_without_k_star": ("clustering.json", drop("k_star")),
    "clustering_without_sigma": ("clustering.json", drop("sigma")),
    "clustering_without_eigenvalues": ("clustering.json", drop("eigenvalues")),
    "clustering_without_eigengaps": ("clustering.json", drop("eigengaps")),
    "clustering_without_distance_matrix": ("clustering.json", drop("distance_matrix")),
    "degenerate_as_a_string": ("clustering.json", lambda doc: dict(doc, degenerate="no")),
    "fractional_k_star": ("clustering.json", lambda doc: dict(doc, k_star=2.7)),
    "fractional_k_range": ("clustering.json", lambda doc: dict(doc, k_range=[2.9, 5.1])),
    "sigma_as_a_string": ("clustering.json", lambda doc: dict(doc, sigma="0.5")),
    "boolean_eigengaps": ("clustering.json", lambda doc: dict(doc, eigengaps=[True, False])),
    "eigenvalues_as_a_string": ("clustering.json", lambda doc: dict(doc, eigenvalues="0123")),
    "ragged_distance_matrix": ("clustering.json", drop_last_entry_of_later_rows),
    "flat_distance_matrix": ("clustering.json",
                             lambda doc: dict(doc, distance_matrix=doc["distance_matrix"][0])),
    "k_star_past_int64": ("clustering.json", lambda doc: dict(doc, k_star=10 ** 399)),
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


def test_reloads_encode_only_the_rows_they_read(finished_run, tmp_path, monkeypatch):
    # cluster-diag reads no rows, adapt each unseen client's train and test
    # split once, and report each participating client's train and test
    # split once
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    original = fedtier.model.encode
    encoded, reloaded = [], []

    def counted(model, data):
        encoded.append(id(data))
        return original(model, data)

    def kept(path):
        reloaded.append(_reload_federation(path))
        return reloaded[-1]

    for module in (fedtier.model, fedtier.federation, fedtier.metrics, fedtier.adaptation):
        assert module.encode is original
        monkeypatch.setattr(module, "encode", counted)
    monkeypatch.setattr(fedtier.cli, "_reload_federation", kept)
    expected = {
        "cluster-diag": lambda data: [],
        "adapt": lambda data: [id(s) for c in data.unseen for s in (c.train, c.test)],
        "report": lambda data: [id(c.train) for c in data.clients]
                               + [id(c.test) for c in data.clients]}
    for command, argv in (("cluster-diag", ["--out", str(tmp_path / "diag.json")]),
                          ("adapt", ["--epochs", "2"]), ("report", [])):
        encoded.clear()
        assert main([command, "--run", str(run_dir)] + argv) == 0
        data = reloaded[-1].data
        assert len(data.clients) == 8 and len(data.unseen) == 2
        assert sorted(encoded) == sorted(expected[command](data)), command


def readme_config(out_dir):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return dict(json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0]),
                out_dir=str(out_dir))


@pytest.mark.parametrize("case", ["readme", "two_clients"])
def test_clustering_json_round_trips_the_assignment(tmp_path, monkeypatch, case):
    # the file reloads as the trained assignment, field by field and bit by
    # bit, and writing the reloaded assignment gives the file's text again
    if case == "readme":
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(readme_config(tmp_path / "run")))
    else:
        cfg = write_config(tmp_path, **{"data.n_total": 2, "data.unseen_fraction": 0.0})
    trained = []

    def keep(config, data):
        trained.append(run_protocol(config, data))
        return trained[0]

    monkeypatch.setattr(fedtier.cli, "run_protocol", keep)
    assert main(["run", "--config", str(cfg)]) == 0
    run_dir = tmp_path / "run"
    reloaded = _reload_federation(run_dir).server.assignment
    assert reloaded.degenerate is (case == "two_clients")
    for f in fields(ClusterAssignment):
        got, want = getattr(reloaded, f.name), getattr(trained[0].server.assignment, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, f.name
            assert got.tobytes() == want.tobytes(), f.name
        else:
            assert got == want, f.name
    text = (run_dir / "clustering.json").read_text()
    assert _json_text(_clustering_payload(reloaded)) == text


class TestClusterDiag:
    def test_json_matches_run_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg)])
        run_dir = tmp_path / "run"
        capsys.readouterr()  # drop the run command's own output
        assert main(["cluster-diag", "--run", str(run_dir)]) == 0
        printed = capsys.readouterr().out
        recomputed = json.loads(printed)
        for key in ("k_star", "sigma", "eigenvalues", "eigengaps", "labels",
                    "distance_matrix"):
            assert key in recomputed
        assert printed.encode("ascii") == (run_dir / "clustering.json").read_bytes()

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

    def test_full_batch_fine_tune_draws_no_shuffle_stream(self, tmp_path, monkeypatch):
        # full batch reads no row order: every leaf epoch gets rng=[None], and
        # adapt.csv holds the bytes of a fine-tune handed a shuffle stream;
        # the fine-tune's inputs are the ones _stack_inputs builds for the leaf
        assert main(["run", "--config", str(write_config(tmp_path))]) == 0
        adapt_csv = tmp_path / "run" / "adapt.csv"
        build, update = fedtier.adaptation._stack_inputs, fedtier.adaptation.local_update
        leaves, seen, handed = [], [], []

        def building(model, paths, active, *args):
            inputs = build(model, paths, active, *args)
            if active is Tier.LEAF:
                leaves.append(inputs)
            return inputs

        def spy(model, inputs, data, *, rng=None, **kwargs):
            if any(inputs is leaf for leaf in leaves):
                seen.append(rng)
                rng = [np.random.default_rng(0)] if handed else rng
            return update(model, inputs, data, rng=rng, **kwargs)

        monkeypatch.setattr(fedtier.adaptation, "_stack_inputs", building)
        monkeypatch.setattr(fedtier.adaptation, "local_update", spy)
        assert main(["adapt", "--run", str(tmp_path / "run"), "--epochs", "3"]) == 0
        assert seen == [[None]] * 2 * 3   # 2 unseen clients x 3 epochs
        without = adapt_csv.read_bytes()
        handed.append(True)
        assert main(["adapt", "--run", str(tmp_path / "run"), "--epochs", "3"]) == 0
        assert adapt_csv.read_bytes() == without

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

    def test_run_without_unseen_clients_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"data.unseen_fraction": 0.0})
        assert main(["run", "--config", str(cfg)]) == 0
        run_dir = tmp_path / "run"
        before = sorted(p.relative_to(run_dir) for p in run_dir.rglob("*"))
        capsys.readouterr()
        assert main(["adapt", "--run", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "data.unseen_fraction" in captured.err
        assert captured.out == ""
        assert sorted(p.relative_to(run_dir) for p in run_dir.rglob("*")) == before


class TestGradcheck:
    def test_passes_and_prints(self, capsys):
        assert main(["gradcheck", "--trials", "6"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_a_usage_error(self, capsys, trials):
        assert main(["gradcheck", "--trials", trials]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert main(["gradcheck", "--seed", "-1", "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a non-negative integer")
        assert "Traceback" not in err


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

    def test_reload_refuses_a_csv_edited_after_the_run(self, tmp_path, capsys):
        cfg = write_csv_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        run_dir = tmp_path / "csvrun"
        metrics = (run_dir / "metrics.csv").read_bytes()
        csv_path = tmp_path / "pool.csv"
        lines = csv_path.read_text().splitlines()
        client, label, *features = lines[1].split(",")
        lines[1] = ",".join([client, str((int(label) + 1) % 4), *features])
        csv_path.write_text("\n".join(lines) + "\n")
        for command in ("report", "adapt", "cluster-diag"):
            capsys.readouterr()
            assert main([command, "--run", str(run_dir)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "csv_sha256" in err
        assert (run_dir / "metrics.csv").read_bytes() == metrics

    def test_n_total_must_equal_the_csv_client_count(self, tmp_path, capsys):
        cfg = write_csv_config(tmp_path)
        doc = json.loads(cfg.read_text())
        cfg.write_text(json.dumps({**doc, "data": {**doc["data"], "n_total": 99}}))
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_total" in err
        cfg.write_text(json.dumps({**doc, "data": {**doc["data"], "n_total": 4}}))
        assert main(["run", "--config", str(cfg)]) == 0
        run_dir = tmp_path / "csvrun"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["data"]["n_total"] == 4
        assert main(["report", "--run", str(run_dir)]) == 0

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
