"""Experiment orchestration from a single JSON config.

Subcommands
-----------
run          execute the full protocol and write all artifacts
cluster-diag recompute the clustering pipeline from checkpointed EMA bases
adapt        run the unseen-client pipeline against a finished run
gradcheck    finite-difference check of the analytic tier gradients
report       regenerate metrics from a run's checkpoints (byte-identical)

Config document (JSON)::

    {
      "federation": { FederationConfig fields; n_clients may be omitted and
                      is then derived from the data section },
      "data": { "kind": "gl_dir" | "sc_dir" | "patho" | "cluster_shift" | "csv",
                generator fields (classes, feature_dim, per_class, separation,
                n_total, seed, unseen_fraction) plus per-kind fields:
                alpha | alpha+superclasses | classes_per_client |
                k_true+rotation_angle+label_subset_size | path },
      "out_dir": "runs/exp" (optional; --out overrides)
    }

Artifacts of ``run`` (all listed in manifest.json): roundlog.csv with columns
``stage,round,cluster,rho,weighted_train_loss,stopped`` (root rows use
cluster=-1; leaf rows appear once per client per epoch carrying the client's
cluster), metrics.json and the flat metrics.csv
(``client_id,cluster,acc,G_c,G_l``), clustering.json, and a checkpoints/
directory holding one text dump per frozen adapter (root.adapter,
cluster_<j>.adapter, leaf_<i>.adapter) and per EMA basis (ema_<i>.matrix).
Adapter dumps are ``p q rank`` followed by the rows of B then the rows of A,
matrix dumps are ``rows cols`` followed by the rows; entries are printed with
%.17g and round-trip float64 exactly.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .adaptation import adapt_unseen
from .clustering import BasisTracker, ClusterAssignment, cluster_clients
from .datagen import (ClusterShift, FederationData, GlDir, Patho, ScDir,
                      load_csv, gen_pool, partition, split_unseen)
from .errors import ConfigurationError, DegenerateInputError, GenerationError, PreconditionError
from .federation import FederationConfig, TrainedFederation, run_protocol
from .lora import read_adapter, save_adapter, load_matrix, dump_matrix
from .metrics import compute_metrics
from .model import build_model, gradient_check

_FED_FIELDS = {f for f in FederationConfig.__dataclass_fields__}
_DATA_COMMON = {"kind", "classes", "feature_dim", "per_class", "separation",
                "n_total", "seed", "unseen_fraction"}
_DATA_GENERATOR = ("classes", "feature_dim", "per_class", "n_total")
_DATA_KIND_FIELDS = {  # required per kind; sc_dir also takes optional superclasses
    "gl_dir": ("alpha",),
    "sc_dir": ("alpha",),
    "patho": ("classes_per_client",),
    "cluster_shift": ("k_true", "rotation_angle", "label_subset_size"),
    "csv": ("path",),
}
# the JSON type of every data field; a bool is never a number
_DATA_TYPES = {
    "kind": "a string", "path": "a string",
    "classes": "an integer", "feature_dim": "an integer", "per_class": "an integer",
    "n_total": "an integer", "seed": "an integer", "classes_per_client": "an integer",
    "k_true": "an integer", "label_subset_size": "an integer",
    "separation": "a number", "unseen_fraction": "a number", "alpha": "a number",
    "rotation_angle": "a number", "superclasses": "a list of integers or null",
}
_HAS_JSON_TYPE = {
    "a string": lambda v: type(v) is str,
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) in (int, float),
    "a list of integers or null":
        lambda v: v is None or (type(v) is list and all(type(i) is int for i in v)),
}


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigurationError(f"missing field '{key}' in {where}")
    return section[key]


def _materialize_config(raw: dict) -> tuple[dict, FederationData]:
    """Validate the raw document and fill in every default, so the manifest
    fully describes the run; returns it with the run's data, built once."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config document must be a JSON object")
    for key in raw:
        if key not in ("federation", "data", "out_dir"):
            raise ConfigurationError(f"unknown top-level field '{key}'")
    for name in ("federation", "data"):
        if not isinstance(raw.get(name, {}), dict):
            raise ConfigurationError(f"the {name} section must be a JSON object")
    if not isinstance(raw.get("out_dir", ""), str):
        raise ConfigurationError("out_dir must be a string")
    fed = dict(raw.get("federation", {}))
    data = dict(raw.get("data", {}))
    for key in fed:
        if key not in _FED_FIELDS:
            raise ConfigurationError(f"unknown field 'federation.{key}'")
    kind = _need(data, "kind", "the data section")
    if type(kind) is not str or kind not in _DATA_KIND_FIELDS:
        raise ConfigurationError(f"data.kind must be one of {sorted(_DATA_KIND_FIELDS)}")
    required = (() if kind == "csv" else _DATA_GENERATOR) + _DATA_KIND_FIELDS[kind]
    allowed = _DATA_COMMON.union(required, ["superclasses"] if kind == "sc_dir" else [])
    for key in data:
        if key not in allowed:
            raise ConfigurationError(f"unknown field 'data.{key}' for kind '{kind}'")

    master_seed = fed.get("master_seed", 0)
    if type(master_seed) is not int or master_seed < 0:
        raise ConfigurationError("federation.master_seed must be a non-negative integer, "
                                 f"got {master_seed!r}")
    data.setdefault("seed", master_seed)
    data.setdefault("unseen_fraction", 0.0)
    for key in required:
        _need(data, key, "the data section")
    if kind != "csv":
        data.setdefault("separation", 3.0)
    for key, value in data.items():
        if not _HAS_JSON_TYPE[_DATA_TYPES[key]](value):
            raise ConfigurationError(f"data.{key} must be {_DATA_TYPES[key]}, got {value!r}")
    if data["seed"] < 0:
        raise ConfigurationError("data.seed must be non-negative")
    if not 0.0 <= data["unseen_fraction"] < 1.0:
        raise ConfigurationError("data.unseen_fraction must lie in [0, 1)")
    built = _build_data(data)
    if kind == "csv":
        data["n_total"] = len(built.clients) + len(built.unseen)
    participating = len(built.clients)
    config = FederationConfig(**{"n_clients": participating, **fed})
    if config.n_clients != participating:
        raise ConfigurationError(
            f"federation.n_clients={fed['n_clients']} but the data section "
            f"yields {participating} participating clients")
    materialized = {f: getattr(config, f) for f in _FED_FIELDS}
    return {"federation": materialized, "data": data,
            "out_dir": raw.get("out_dir", "run_out")}, built


def _build_data(data_spec: dict) -> FederationData:
    kind = data_spec["kind"]
    seed = int(data_spec["seed"])
    if kind == "csv":
        data = load_csv(data_spec["path"], seed=seed)
    else:
        pool = gen_pool(int(data_spec["classes"]), int(data_spec["feature_dim"]),
                        int(data_spec["per_class"]), float(data_spec["separation"]),
                        seed=seed)
        n_total = int(data_spec["n_total"])
        if kind == "gl_dir":
            spec = GlDir(alpha=float(data_spec["alpha"]))
        elif kind == "sc_dir":
            sup = data_spec.get("superclasses")
            spec = ScDir(alpha=float(data_spec["alpha"]),
                         superclass_of=tuple(sup) if sup is not None else None)
        elif kind == "patho":
            spec = Patho(classes_per_client=int(data_spec["classes_per_client"]))
        else:
            spec = ClusterShift(k_true=int(data_spec["k_true"]),
                                rotation_angle=float(data_spec["rotation_angle"]),
                                label_subset_size=int(data_spec["label_subset_size"]))
        data = partition(pool, spec, n_total, seed=seed)
    frac = float(data_spec["unseen_fraction"])
    if frac > 0:
        data = split_unseen(data, frac, seed=seed)
    return data


def _repr_float(x) -> str:
    return repr(float(x))


def _write_roundlog(path: Path, fed: TrainedFederation):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stage", "round", "cluster", "rho", "weighted_train_loss", "stopped"])
        for rep in fed.reports:
            cluster = -1 if rep.cluster is None else rep.cluster
            for rnd, (rho, loss) in enumerate(zip(rep.rho, rep.weighted_loss), start=1):
                stopped = rep.stop_reason == "criterion" and rnd == rep.rounds
                w.writerow([rep.stage, rnd, cluster, _repr_float(rho),
                            _repr_float(loss), stopped])


def _clustering_payload(assignment: ClusterAssignment) -> dict:
    n = len(assignment.labels)
    affinities = (assignment.affinities if assignment.affinities is not None
                  else np.ones((n, n)))
    return {
        "k_star": int(assignment.k_star),
        "sigma": float(assignment.sigma),
        "eigenvalues": [float(x) for x in assignment.eigenvalues],
        "eigengaps": [float(x) for x in assignment.eigengaps],
        "labels": [int(x) for x in assignment.labels],
        "distance_matrix": [[float(x) for x in row] for row in assignment.distances],
        "affinity_matrix": [[float(x) for x in row] for row in affinities],
        "k_range": list(assignment.k_range),
        "degenerate": bool(assignment.degenerate),
    }


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="ascii")


def _write_metrics(out_dir: Path, report) -> list[str]:
    _write_json(out_dir / "metrics.json", report.to_dict())
    with (out_dir / "metrics.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["client_id", "cluster", "acc", "G_c", "G_l"])
        for cid, cl, acc, gc, gl in zip(report.client_ids, report.clusters,
                                        report.accuracies, report.gains_cluster,
                                        report.gains_leaf):
            w.writerow([cid, cl, _repr_float(acc), _repr_float(gc), _repr_float(gl)])
    return ["metrics.json", "metrics.csv"]


def _save_checkpoints(out_dir: Path, fed: TrainedFederation) -> list[str]:
    ck = out_dir / "checkpoints"
    ck.mkdir(parents=True, exist_ok=True)
    files = []
    save_adapter(fed.server.root, ck / "root.adapter")
    files.append("checkpoints/root.adapter")
    for j in sorted(fed.server.clusters):
        save_adapter(fed.server.clusters[j], ck / f"cluster_{j}.adapter")
        files.append(f"checkpoints/cluster_{j}.adapter")
    for client in fed.clients:
        save_adapter(client.path.leaf, ck / f"leaf_{client.id}.adapter")
        files.append(f"checkpoints/leaf_{client.id}.adapter")
    for i in sorted(fed.tracker.bases):
        (ck / f"ema_{i}.matrix").write_text(dump_matrix(fed.tracker.bases[i]),
                                            encoding="ascii")
        files.append(f"checkpoints/ema_{i}.matrix")
    return files


def _cmd_run(args) -> int:
    raw = json.loads(Path(args.config).read_text())
    if not isinstance(raw, dict):
        raise ConfigurationError("config document must be a JSON object")
    if args.seed is not None and isinstance(raw.get("federation", {}), dict):
        raw.setdefault("federation", {})["master_seed"] = args.seed
    doc, data = _materialize_config(raw)
    if args.workers is not None:
        doc["federation"]["workers"] = args.workers
    if args.out is not None:
        doc["out_dir"] = args.out
    config = FederationConfig(**doc["federation"])
    fed = run_protocol(config, data)

    out_dir = Path(doc["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    files = ["manifest.json", "roundlog.csv", "clustering.json"]
    _write_roundlog(out_dir / "roundlog.csv", fed)
    _write_json(out_dir / "clustering.json", _clustering_payload(fed.server.assignment))
    files += _write_metrics(out_dir, compute_metrics(fed))
    files += _save_checkpoints(out_dir, fed)
    _write_json(out_dir / "manifest.json",
                {"config": {"federation": doc["federation"], "data": doc["data"]},
                 "files": sorted(files)})
    print(f"run complete: {out_dir} ({fed.rounds_executed} rounds executed)")
    return 0


def _read_json_object(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path.name} must hold a JSON object")
    return doc


def _reload_federation(run_dir: Path) -> TrainedFederation:
    doc, data = _materialize_config(_need(_read_json_object(run_dir / "manifest.json"),
                                          "config", "manifest.json"))
    config = FederationConfig(**doc["federation"])
    model = build_model(data.feature_dim, data.class_count, config.hidden_dim,
                        config.master_seed)
    diag = _read_json_object(run_dir / "clustering.json")
    for key in ("k_star", "labels", "eigengaps", "sigma", "eigenvalues", "distance_matrix"):
        _need(diag, key, "clustering.json")
    labels = diag["labels"]
    if not isinstance(labels, list) or len(labels) != config.n_clients:
        raise ConfigurationError(f"clustering.json needs {config.n_clients} labels")
    if not all(type(j) is int for j in labels):
        raise ConfigurationError("clustering.json labels must be integers")
    try:
        assignment = ClusterAssignment(
            k_star=int(diag["k_star"]), labels=np.array(labels, dtype=np.int64),
            eigengaps=np.array(diag["eigengaps"], dtype=np.float64),
            k_range=tuple(int(k) for k in diag.get("k_range", (0, 0))),
            sigma=float(diag["sigma"]),
            eigenvalues=np.array(diag["eigenvalues"], dtype=np.float64),
            distances=np.array(diag["distance_matrix"], dtype=np.float64),
            affinities=(np.array(diag["affinity_matrix"], dtype=np.float64)
                        if "affinity_matrix" in diag else None),
            degenerate=bool(diag.get("degenerate", False)))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"clustering.json holds a malformed value: {exc}") from None
    # read exactly the checkpoints the run wrote: a missing one is an i/o
    # failure, and stray files beside them are never parsed
    ck = run_dir / "checkpoints"
    root = read_adapter(ck / "root.adapter")
    clusters = {j: read_adapter(ck / f"cluster_{j}.adapter") for j in assignment.cluster_ids}
    tracker = BasisTracker(config.ema_decay)
    for i in range(config.n_clients):
        tracker.bases[i] = load_matrix((ck / f"ema_{i}.matrix").read_text())
    leaves = [read_adapter(ck / f"leaf_{i}.adapter") for i in range(config.n_clients)]
    return TrainedFederation.from_tiers(config, model, data, root, clusters, leaves,
                                        assignment, [], tracker)


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    fed = _reload_federation(run_dir)
    _write_metrics(run_dir, compute_metrics(fed))
    print(f"metrics regenerated in {run_dir}")
    return 0


def _cmd_cluster_diag(args) -> int:
    run_dir = Path(args.run)
    fed = _reload_federation(run_dir)
    assignment = cluster_clients(fed.tracker, fed.config.k_min, fed.config.k_max,
                                 seed=fed.config.master_seed,
                                 expected_clients=fed.config.n_clients)
    payload = _clustering_payload(assignment)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"clustering diagnostics written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_adapt(args) -> int:
    run_dir = Path(args.run)
    fed = _reload_federation(run_dir)
    out_path = Path(args.out) if args.out else run_dir / "adapt.csv"
    # adapt everyone before opening the file, so a failure keeps an earlier one
    results = [adapt_unseen(fed.model, client, fed.server, fed.config,
                            epochs=args.epochs, seed=fed.config.master_seed + u)
               for u, client in enumerate(fed.data.unseen)]
    with out_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["client_id", "assigned_cluster", "epoch", "test_accuracy"])
        for u, result in enumerate(results):
            for epoch, acc in enumerate(result.accuracy_trajectory):
                w.writerow([u, result.assigned_cluster, epoch, _repr_float(acc)])
    print(f"adaptation results written to {out_path}")
    return 0


def _cmd_gradcheck(args) -> int:
    worst = gradient_check(trials=args.trials, seed=args.seed)
    print(f"max relative error: {worst:.3e} over {args.trials} configurations")
    return 0 if worst <= 1e-4 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedtier",
                                     description="hierarchical-adapter federated simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a full experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_diag = sub.add_parser("cluster-diag", help="recompute clustering from checkpoints")
    p_diag.add_argument("--run", required=True)
    p_diag.add_argument("--out", default=None)
    p_diag.set_defaults(fn=_cmd_cluster_diag)

    p_adapt = sub.add_parser("adapt", help="run the unseen-client pipeline")
    p_adapt.add_argument("--run", required=True)
    p_adapt.add_argument("--epochs", type=int, default=5)
    p_adapt.add_argument("--out", default=None)
    p_adapt.set_defaults(fn=_cmd_adapt)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_grad.add_argument("--trials", type=int, default=24)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(fn=_cmd_gradcheck)

    p_rep = sub.add_parser("report", help="regenerate metrics from checkpoints")
    p_rep.add_argument("--run", required=True)
    p_rep.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, DegenerateInputError, GenerationError, PreconditionError) as exc:
        return _fail(str(exc))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return _fail(f"i/o failure: {exc}")


if __name__ == "__main__":
    sys.exit(main())
