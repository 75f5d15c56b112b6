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
                seed and unseen_fraction, plus the kind's own fields: for a
                partition kind the generator fields (classes, feature_dim,
                per_class, n_total, separation) and the fields of its
                partition spec (GlDir, ScDir, Patho, ClusterShift; ScDir's
                superclass_of is spelled superclasses), for csv a path, and
                n_total only if it equals the file's client count },
      "out_dir": "runs/exp" (optional; --out overrides)
    }

One table (_DATA_KINDS) describes each data kind: its partition spec and its
own fields as (type, rule, default), a field without a default being
required. The manifest records every data field, defaults included (sc_dir's
superclasses as null, a csv n_total as the file's client count).

Artifacts of ``run`` (all listed in manifest.json): roundlog.csv with columns
``stage,round,cluster,rho,weighted_train_loss,stopped`` (root rows use
cluster=-1; leaf rows appear once per client per epoch carrying the client's
cluster), metrics.json (one record per client under ``clients``, plus the
run's summaries) and the flat metrics.csv (``client_id,cluster,acc,G_c,G_l``),
both written from one column table (metrics.CLIENT_COLUMNS: each per-client
column's report field, JSON key and csv header), clustering.json, and a
checkpoints/ directory holding one text dump per frozen adapter (root.adapter,
cluster_<j>.adapter, leaf_<i>.adapter) and per EMA basis (ema_<i>.matrix).
clustering.json holds the ClusterAssignment: k_star (integer), sigma
(number), degenerate (boolean), labels and k_range (lists of integers),
eigenvalues and eigengaps (lists of numbers), distance_matrix and
affinity_matrix (lists of lists of numbers). One table (_CLUSTERING_JSON)
writes it and reads it back, and the reload commands refuse a missing key
or a value of the wrong kind.
Adapter dumps are ``p q rank`` followed by the rows of B then the rows of A,
matrix dumps are ``rows cols`` followed by the rows; entries are printed with
%.17g and round-trip float64 exactly. The manifest of a csv run also holds
``csv_sha256``, the digest of the CSV bytes; the reload commands refuse a
file that no longer matches it. ``adapt`` refuses a run with no unseen
clients. The three csv tables (roundlog.csv, metrics.csv, adapt.csv) are
written by one helper, _write_csv, and every csv float as its shortest
round-trip repr.
"""

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .adaptation import adapt_unseen
from .clustering import BasisTracker, ClusterAssignment
from .datagen import (ClusterShift, FederationData, GlDir, Patho, ScDir,
                      load_csv, gen_pool, partition, split_unseen)
from .errors import (NON_NEGATIVE, POSITIVE, ConfigurationError, DegenerateInputError,
                     GenerationError, PreconditionError, Rule, check_seed, check_types, has_type,
                     one_of)
from .federation import (FederationConfig, ServerState, TrainedFederation, _run_clustering,
                         run_protocol)
from .lora import read_adapter, save_adapter, load_matrix, dump_matrix
from .metrics import CLIENT_COLUMNS, MetricsReport, compute_metrics
from .model import build_model, gradient_check

_FED_FIELDS = {f for f in FederationConfig.__dataclass_fields__}
# each data kind's partition spec (None for csv) and its own fields as
# (type, rule, default), MISSING marking a required field. A partition kind
# takes the pool generator's fields, typed here so that an error names the
# field, then its spec's, which have no type here because the spec checks
# them (ScDir's superclass_of is spelled superclasses). A csv n_total has no
# default (None): it becomes the file's client count. Every kind also takes
# seed and unseen_fraction.
_DATA_KINDS = {
    **{kind: (spec, {"classes": (int, POSITIVE, MISSING), "feature_dim": (int, POSITIVE, MISSING),
                     "per_class": (int, POSITIVE, MISSING), "n_total": (int, POSITIVE, MISSING),
                     "separation": (float, NON_NEGATIVE, 3.0),
                     **{"superclasses" if f.name == "superclass_of" else f.name:
                        (None, None, f.default) for f in fields(spec)}})
       for kind, spec in (("gl_dir", GlDir), ("sc_dir", ScDir), ("patho", Patho),
                          ("cluster_shift", ClusterShift))},
    "csv": (None, {"path": (str, None, MISSING), "n_total": (int, POSITIVE, None)})}
_UNSEEN_FRACTION = Rule("must lie in [0, 1)", lo=0, hi=1, closed_lo=True)

# each clustering.json key, the ClusterAssignment field it holds, the JSON
# kind of its elements and its list depth; _clustering_payload writes the
# file from it and _reload_federation reads it back
_CLUSTERING_JSON = {
    "k_star": ("k_star", int, 0), "sigma": ("sigma", float, 0),
    "degenerate": ("degenerate", bool, 0), "labels": ("labels", int, 1),
    "k_range": ("k_range", int, 1), "eigenvalues": ("eigenvalues", float, 1),
    "eigengaps": ("eigengaps", float, 1), "distance_matrix": ("distances", float, 2),
    "affinity_matrix": ("affinities", float, 2)}
# the JSON types each element kind admits, and its array dtype
_JSON_KINDS = {int: ({int}, np.int64), float: ({int, float}, np.float64), bool: ({bool}, np.bool_)}


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _need(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigurationError(f"missing field '{key}' in {where}")
    return section[key]


def _clustering_value(doc: dict, key: str, kind: type, depth: int):
    """doc[key] of clustering.json: a kind value at depth 0, else an array of
    kind values nested `depth` lists deep. A bool is not a number, a float is
    not an int, and a string or a ragged list has the wrong depth."""
    allowed, dtype = _JSON_KINDS[kind]
    value = _need(doc, key, "clustering.json")
    try:
        value = np.array(value, dtype=object)
        if value.ndim != depth or not all(type(x) in allowed for x in value.flat):
            raise ValueError
        value = value.astype(dtype)   # OverflowError past the int64 or float range
    except (ValueError, OverflowError):
        raise ConfigurationError(f"clustering.json {key} must hold {kind.__name__} values "
                                 f"at list depth {depth}") from None
    return value.item() if depth == 0 else value


def _materialize_config(raw: dict, seed=None, workers=None, out=None,
                        run_manifest=None) -> tuple[dict, FederationConfig, FederationData]:
    """Validate the raw document under the run command's --seed, --workers and
    --out overrides and fill in every default, so the manifest fully describes
    the run; returns the manifest's head (the filled-in config, the out_dir
    and, for a csv input, the sha256 of its bytes) with the run's config and
    data, each built once. A csv input of a reloaded run (run_manifest) must
    still hash to the digest that run recorded."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config document must be a JSON object")
    for key in raw:
        if key not in ("federation", "data", "out_dir"):
            raise ConfigurationError(f"unknown top-level field '{key}'")
    for name in ("federation", "data"):
        if not isinstance(raw.get(name, {}), dict):
            raise ConfigurationError(f"the {name} section must be a JSON object")
    check_types(str, out_dir=raw.get("out_dir", ""))
    fed = dict(raw.get("federation", {}))
    fed.update((k, v) for k, v in (("master_seed", seed), ("workers", workers)) if v is not None)
    data = dict(raw.get("data", {}))
    for key in fed:
        if key not in _FED_FIELDS:
            raise ConfigurationError(f"unknown field 'federation.{key}'")
    kind = _need(data, "kind", "the data section")
    check_types(str, one_of(*_DATA_KINDS), **{"data.kind": kind})
    own = _DATA_KINDS[kind][1]
    for key in data:
        if key not in own and key not in ("kind", "seed", "unseen_fraction"):
            raise ConfigurationError(f"unknown field 'data.{key}' for kind '{kind}'")

    master_seed = fed.get("master_seed", 0)
    data.setdefault("seed", master_seed)
    check_seed(**{"federation.master_seed": master_seed, "data.seed": data["seed"]})
    # a given value is held to its type and rule, a missing one takes its default
    for key, (typ, rule, default) in {"unseen_fraction": (float, _UNSEEN_FRACTION, 0.0),
                                      **own}.items():
        if key in data and typ is not None:
            check_types(typ, rule, **{f"data.{key}": data[key]})
        if data.setdefault(key, default) is MISSING:
            raise ConfigurationError(f"missing field '{key}' in the data section")
    sc = data.get("superclasses")
    if not (sc is None or type(sc) is list and all(has_type(i, int) for i in sc)):
        raise ConfigurationError(f"data.superclasses must be a list of integers or null, "
                                 f"got {sc!r}")
    out_dir = raw.get("out_dir", "run_out") if out is None else out
    for name, path in (("out_dir", out_dir), ("data.path", data.get("path", ""))):
        if "\0" in path:   # every file operation on it would raise ValueError
            raise ConfigurationError(f"{name} must not hold a NUL byte")
    pins = {}
    if kind == "csv":
        pins["csv_sha256"] = hashlib.sha256(Path(data["path"]).read_bytes()).hexdigest()
        if run_manifest is not None and _need(run_manifest, "csv_sha256",
                                              "manifest.json") != pins["csv_sha256"]:
            raise ConfigurationError(f"{data['path']} changed since the run "
                                     "(csv_sha256 in manifest.json differs); re-run it")
    built = _build_data(data)
    n_total = len(built.clients) + len(built.unseen)
    if data["n_total"] not in (None, n_total):   # only a csv n_total can differ
        raise ConfigurationError(f"data.n_total={data['n_total']} but {data['path']} holds "
                                 f"{n_total} clients")
    data["n_total"] = n_total
    participating = len(built.clients)
    config = FederationConfig(**{"n_clients": participating, **fed})
    if config.n_clients != participating:
        raise ConfigurationError(
            f"federation.n_clients={fed['n_clients']} but the data section "
            f"yields {participating} participating clients")
    return ({"config": {"federation": {f: getattr(config, f) for f in _FED_FIELDS},
                        "data": data},
             "out_dir": out_dir, **pins},
            config, built)


def _build_data(data_spec: dict) -> FederationData:
    (spec, own), seed = _DATA_KINDS[data_spec["kind"]], data_spec["seed"]
    if spec is None:
        data = load_csv(data_spec["path"], seed=seed)
    else:
        pool = gen_pool(data_spec["classes"], data_spec["feature_dim"],
                        data_spec["per_class"], data_spec["separation"], seed=seed)
        # the spec's fields, in field order, are the kind's untyped ones
        data = partition(pool, spec(*(data_spec[key] for key, (typ, _, _) in own.items()
                                      if typ is None)), data_spec["n_total"], seed=seed)
    if data_spec["unseen_fraction"] > 0:
        data = split_unseen(data, data_spec["unseen_fraction"], seed=seed)
    return data


def _write_csv(path: Path, header: list[str], rows):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _clustering_payload(assignment: ClusterAssignment) -> dict:
    return {key: np.asarray(getattr(assignment, name)).tolist()
            for key, (name, _, _) in _CLUSTERING_JSON.items()}


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_json(path: Path, payload: dict):
    path.write_text(_json_text(payload), encoding="ascii")


def _write_metrics(out_dir: Path, report: MetricsReport) -> list[str]:
    """metrics.json, the report's to_dict, and metrics.csv, the CLIENT_COLUMNS
    that have a csv header, one row per client record."""
    payload = report.to_dict()
    _write_json(out_dir / "metrics.json", payload)
    columns = [(key, header) for _, key, header in CLIENT_COLUMNS if header is not None]
    _write_csv(out_dir / "metrics.csv", [header for _, header in columns],
               ([client[key] for key, _ in columns] for client in payload["clients"]))
    return ["metrics.json", "metrics.csv"]


def _checkpoints(run_dir: Path, cluster_ids, n_clients: int) -> tuple[Path, dict, list, list]:
    """The checkpoint files of a run: the root's, each cluster's by id, and
    each client's leaf and EMA basis in client order."""
    ck = run_dir / "checkpoints"
    return (ck / "root.adapter", {j: ck / f"cluster_{j}.adapter" for j in cluster_ids},
            [ck / f"leaf_{i}.adapter" for i in range(n_clients)],
            [ck / f"ema_{i}.matrix" for i in range(n_clients)])


def _save_checkpoints(out_dir: Path, fed: TrainedFederation) -> list[str]:
    (out_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    root, clusters, leaves, emas = _checkpoints(out_dir, sorted(fed.server.clusters),
                                                len(fed.leaves))
    save_adapter(fed.server.root, root)
    for j, path in clusters.items():
        save_adapter(fed.server.clusters[j], path)
    for leaf, path in zip(fed.leaves, leaves):
        save_adapter(leaf, path)
    for i, path in enumerate(emas):
        path.write_text(dump_matrix(fed.tracker.bases[i]), encoding="ascii")
    return [p.relative_to(out_dir).as_posix() for p in (root, *clusters.values(), *leaves, *emas)]


def _cmd_run(args) -> int:
    doc, config, data = _materialize_config(_read_json_object(Path(args.config)),
                                            seed=args.seed, workers=args.workers,
                                            out=args.out)
    fed = run_protocol(config, data)

    out_dir = Path(doc.pop("out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    files = ["manifest.json", "roundlog.csv", "clustering.json"]
    _write_csv(out_dir / "roundlog.csv",
               ["stage", "round", "cluster", "rho", "weighted_train_loss", "stopped"],
               ([rep.stage, rnd, -1 if rep.cluster is None else rep.cluster, rho, loss,
                 rep.stop_reason == "criterion" and rnd == rep.rounds]
                for rep in fed.reports
                for rnd, (rho, loss) in enumerate(zip(rep.rho, rep.weighted_loss), start=1)))
    _write_json(out_dir / "clustering.json", _clustering_payload(fed.server.assignment))
    files += _write_metrics(out_dir, compute_metrics(fed))
    files += _save_checkpoints(out_dir, fed)
    _write_json(out_dir / "manifest.json", {**doc, "files": sorted(files)})
    print(f"run complete: {out_dir} ({fed.rounds_executed} rounds executed)")
    return 0


def _read_json_object(path: Path) -> dict:
    text = path.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path.name} is not valid JSON: {exc}") from None
    except ValueError:   # an integer past Python's int-to-str digit limit
        raise ConfigurationError(f"{path.name} holds an integer with too many digits") from None
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path.name} must hold a JSON object")
    return doc


def _reload_federation(run_dir: Path) -> TrainedFederation:
    manifest = _read_json_object(run_dir / "manifest.json")
    _, config, data = _materialize_config(_need(manifest, "config", "manifest.json"),
                                          run_manifest=manifest)
    model = build_model(data.feature_dim, data.class_count, config.hidden_dim,
                        config.master_seed)
    diag = _read_json_object(run_dir / "clustering.json")
    values = {name: _clustering_value(diag, key, kind, depth)
              for key, (name, kind, depth) in _CLUSTERING_JSON.items()}
    assignment = ClusterAssignment(**dict(values, k_range=tuple(values["k_range"].tolist())))
    # read exactly the checkpoints the run wrote: a missing one is an i/o
    # failure, and stray files beside them are never parsed
    root, clusters, leaves, emas = _checkpoints(run_dir, assignment.cluster_ids, config.n_clients)
    tracker = BasisTracker(config.ema_decay)
    tracker.bases.update(enumerate(load_matrix(path.read_text()) for path in emas))
    server = ServerState(root=read_adapter(root), assignment=assignment,
                         clusters={j: read_adapter(path) for j, path in clusters.items()})
    return TrainedFederation(config, model, data, server, list(map(read_adapter, leaves)), [],
                             tracker)


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    fed = _reload_federation(run_dir)
    _write_metrics(run_dir, compute_metrics(fed))
    print(f"metrics regenerated in {run_dir}")
    return 0


def _cmd_cluster_diag(args) -> int:
    run_dir = Path(args.run)
    fed = _reload_federation(run_dir)
    text = _json_text(_clustering_payload(_run_clustering(fed.config, fed.tracker)))
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"clustering diagnostics written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_adapt(args) -> int:
    run_dir = Path(args.run)
    fed = _reload_federation(run_dir)
    if not fed.data.unseen:
        raise ConfigurationError("the run holds no unseen clients: data.unseen_fraction is 0")
    out_path = Path(args.out) if args.out else run_dir / "adapt.csv"
    # adapt everyone before opening the file, so a failure keeps an earlier one
    results = [adapt_unseen(fed.model, client, fed.server, fed.config,
                            epochs=args.epochs, seed=fed.config.master_seed + u)
               for u, client in enumerate(fed.data.unseen)]
    _write_csv(out_path, ["client_id", "assigned_cluster", "epoch", "test_accuracy"],
               ([u, result.assigned_cluster, epoch, acc] for u, result in enumerate(results)
                for epoch, acc in enumerate(result.accuracy_trajectory)))
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
    # RecursionError: json.loads of a document nested past the recursion limit
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        return _fail(f"i/o failure: {exc}")
    # numpy's _ArrayMemoryError: an array the config asks for cannot be allocated
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}")


if __name__ == "__main__":
    sys.exit(main())
