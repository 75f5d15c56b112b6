"""The three benchmark workloads and the correctness gate each iteration
passes.

Every workload uses ClusterShift data (12 classes, feature_dim 8,
separation 3.0, 3 planted groups, rotation pi/2, 3 labels per group, 25 % of
clients held out as unseen) and the README federation config (rank 2,
budgets 10/25/15, lr 0.1, 4 local epochs, EMA decay 0.97, hidden_dim 32).
They differ in client count, batch mode and entry point:

readme_full       N = 30 + 10 unseen, full batch, library API. The paper's
                  reference experiment; the truncated SVD dominates it.
scale90_mini      N = 90 + 30 unseen, mini-batch 32 with the README's ~58
                  train samples per client, library API. The per-client
                  update path and the O(N^2) metrics and clustering paths
                  dominate; the SVD is a small share.
cli_roundtrip_w2  readme_full's data through ``fedtier.cli.main``
                  in-process: run --workers 2, report, cluster-diag, adapt.
                  The only workload on the thread pool and the only one
                  that writes artifacts and reloads them.

Each iteration is one closed-loop operation in one process: every call
starts when the previous one returns. The client counts are kept small
enough that one iteration takes a few seconds, so that a run's medians rest
on several iterations.
"""

import csv
import hashlib
import io
import json
import math
import re
import shutil
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import fedtier
import fedtier.cli

from clock import Clock
from tracer import LOCAL_UPDATE, Target, Tracer

FEDERATION = {"rank": 2, "t_root": 10, "t_cluster": 25, "t_leaf": 15,
              "total_budget": 50, "lr": 0.1, "local_epochs": 4,
              "ema_decay": 0.97, "hidden_dim": 32, "batch_size": 32}
DATA = {"classes": 12, "feature_dim": 8, "separation": 3.0, "k_true": 3,
        "rotation_angle": math.pi / 2, "label_subset_size": 3,
        "unseen_fraction": 0.25}
MASTER_SEED = 3            # the README's protocol seed
ADAPT_EPOCHS = 5
GAIN_TOLERANCE = -1e-6     # acceptance criterion 7
STAGE_SLACK = 0.01         # acceptance criterion 8


@dataclass
class Outcome:
    """What one iteration measured and produced. Times are scaled by the
    clock the iteration ran with; ``raw_s`` is the unscaled total."""

    total_s: float
    raw_s: float
    protocol_s: float
    metrics_s: list[float]        # per compute_metrics call
    adapt_s: list[float]          # per unseen client
    t_end: float                  # perf_counter when the program work ended
    sample_epochs: int            # sum of rows x epochs over the protocol's local updates
    rounds_executed: int
    mean_acc: float
    ari: float
    route_acc: float
    digest: str                   # identical inputs must give identical outputs
    attempted: int
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return min(len(self.problems), self.attempted)


def generate(n_total: int, per_class: int, data_seed: int):
    """The workload's federation data, built from the seed alone."""
    pool = fedtier.gen_pool(DATA["classes"], DATA["feature_dim"], per_class,
                            DATA["separation"], seed=data_seed)
    spec = fedtier.ClusterShift(DATA["k_true"], DATA["rotation_angle"],
                                DATA["label_subset_size"])
    data = fedtier.partition(pool, spec, n_total, seed=data_seed)
    return fedtier.split_unseen(data, DATA["unseen_fraction"], seed=data_seed)


def route_accuracy(labels, truth, unseen_truth, assigned) -> float:
    """Criterion 10's rule: each planted group maps to the learned cluster
    most of its participating clients landed in."""
    to_cluster = {g: Counter(int(l) for l, t in zip(labels, truth) if t == g).most_common(1)[0][0]
                  for g in set(int(t) for t in truth)}
    hits = sum(to_cluster[int(g)] == int(a) for g, a in zip(unseen_truth, assigned))
    return hits / len(assigned)


def _finite_in(values, lo, hi) -> bool:
    return all(math.isfinite(v) and lo <= v <= hi for v in values)


def gate(problems, k_star, k_range, accs, gains_c, gains_l, stage_acc, losses):
    """The checks every iteration passes, whatever the seed."""
    if not _finite_in(losses, 0.0, math.inf):
        problems.append("a stage loss or rho is not finite and non-negative")
    if not _finite_in(accs, 0.0, 1.0):
        problems.append("an accuracy lies outside [0, 1]")
    if not k_range[0] <= k_star <= k_range[1]:
        problems.append(f"k_star {k_star} outside {k_range}")
    if min(gains_c) < GAIN_TOLERANCE or min(gains_l) < GAIN_TOLERANCE:
        problems.append(f"negative tier gain: G_c {min(gains_c):.3e}, G_l {min(gains_l):.3e}")
    root, cluster, leaf = stage_acc["root"], stage_acc["cluster"], stage_acc["leaf"]
    if not (leaf >= cluster - STAGE_SLACK and cluster >= root - STAGE_SLACK):
        problems.append(f"stage ordering broken: {root:.4f} -> {cluster:.4f} -> {leaf:.4f}")


class LibraryWorkload:
    """run_protocol, compute_metrics, then adapt_unseen per unseen client,
    all through the public library API."""

    def __init__(self, name, n_total, per_class, batch_mode):
        self.name = name
        self.n_total = n_total
        self.per_class = per_class
        self.batch_mode = batch_mode

    def setup(self, data_seed, work_dir):
        data = generate(self.n_total, self.per_class, data_seed)
        config = fedtier.FederationConfig(n_clients=len(data.clients),
                                          batch_mode=self.batch_mode,
                                          master_seed=MASTER_SEED, workers=1,
                                          **FEDERATION)
        return data, config

    def run_once(self, inputs, clock=None) -> Outcome:
        data, config = inputs
        clock = clock or Clock()
        with clock.phase() as protocol, _protocol_updates() as updates:
            fed = fedtier.run_protocol(config, data)
        with clock.phase() as metrics:
            report = fedtier.compute_metrics(fed)
        results, latencies, problems = [], [], []
        with clock.phase() as adapt:
            for u, client in enumerate(fed.data.unseen):
                a = time.perf_counter()
                try:
                    results.append(fedtier.adapt_unseen(fed.model, client, fed.server,
                                                        fed.config, epochs=ADAPT_EPOCHS,
                                                        seed=config.master_seed + u))
                except Exception as exc:  # one failed adaptation is one failed operation
                    problems.append(f"adapt_unseen client {u}: {exc!r}")
                latencies.append(time.perf_counter() - a)
        t_end = time.perf_counter()

        assignment = fed.server.assignment
        trajectories = [acc for r in results for acc in r.accuracy_trajectory]
        if any(len(r.accuracy_trajectory) != ADAPT_EPOCHS + 1 for r in results):
            problems.append("an adaptation trajectory has the wrong length")
        gate(problems, assignment.k_star, assignment.k_range,
             report.accuracies + report.accuracies_root + report.accuracies_cluster + trajectories,
             report.gains_cluster, report.gains_leaf, report.stage_mean_accuracy,
             [v for r in fed.reports for v in r.weighted_loss + r.rho])
        assigned = [r.assigned_cluster for r in results]
        digest = hashlib.sha256(json.dumps([report.to_dict(), assigned], sort_keys=True)
                                .encode()).hexdigest()
        return Outcome(
            total_s=protocol.s + metrics.s + adapt.s,
            raw_s=protocol.raw_s + metrics.raw_s + adapt.raw_s,
            protocol_s=protocol.s, metrics_s=[metrics.s],
            adapt_s=[x * adapt.factor for x in latencies], t_end=t_end,
            sample_epochs=_work(updates), rounds_executed=fed.rounds_executed,
            mean_acc=report.mean_accuracy, ari=report.ari,
            route_acc=(route_accuracy(assignment.labels, data.true_clusters,
                                      data.unseen_true_clusters, assigned)
                       if len(assigned) == len(data.unseen) else math.nan),
            digest=digest, attempted=1 + len(data.unseen), problems=problems)


def _protocol_updates() -> Tracer:
    """Spans of the protocol's local updates, whose work is rows x epochs:
    only fedtier.federation's binding is wrapped, so adaptation's are not
    counted. It is the only instrumentation of a library workload's
    untraced pass."""
    return Tracer((LOCAL_UPDATE,), only_in={"federation"})


def _work(tracer: Tracer) -> int:
    return sum(s.work for s in tracer.spans)


# The CLI workload also times the three top-level calls inside the
# subcommands by wrapping only their bindings in fedtier.cli: a few dozen
# calls per iteration.
_CLI_PHASES = (Target("federation", "run_protocol"), Target("metrics", "compute_metrics"),
               Target("adaptation", "adapt_unseen"))
_ROUNDS = re.compile(r"\((\d+) rounds executed\)")


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class CliWorkload:
    """``fedtier run --workers W``, ``report``, ``cluster-diag --out`` and
    ``adapt --epochs 5`` through ``fedtier.cli.main`` in this process."""

    def __init__(self, name, n_total, per_class, workers):
        self.name = name
        self.n_total = n_total
        self.per_class = per_class
        self.workers = workers
        self._runs = 0

    def setup(self, data_seed, work_dir):
        """Write the config document, and build the same data the CLI will
        build from it: the checks need the planted groups it never writes.
        Like every workload's inputs, the pair starts with the data."""
        doc = {"federation": dict(FEDERATION, batch_mode="full", master_seed=MASTER_SEED),
               "data": dict(DATA, kind="cluster_shift", per_class=self.per_class,
                            n_total=self.n_total, seed=data_seed)}
        config_path = Path(work_dir) / "config.json"
        config_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return generate(self.n_total, self.per_class, data_seed), config_path

    def run_once(self, inputs, clock=None) -> Outcome:
        data, config_path = inputs
        clock = clock or Clock()
        self._runs += 1
        out = config_path.parent / f"run{self._runs}"
        main = fedtier.cli.main
        rcs = {}
        stdout = io.StringIO()
        with (Tracer(_CLI_PHASES, only_in={"cli"}) as phases, _protocol_updates() as updates,
              redirect_stdout(stdout)):
            with clock.phase(self.workers) as run:
                rcs["run"] = main(["run", "--config", str(config_path),
                                   "--workers", str(self.workers), "--out", str(out)])
            csv_from_run = (out / "metrics.csv").read_bytes() if rcs["run"] == 0 else b""
            # each reload subcommand is a phase of its own, so the calls
            # timed inside it are scaled by the machine speed around them
            reloads = []
            for cmd, argv in (("report", []),
                              ("cluster-diag", ["--out", str(out / "diag.json")]),
                              ("adapt", ["--epochs", str(ADAPT_EPOCHS)])):
                with clock.phase() as ph:
                    rcs[cmd] = main([cmd, "--run", str(out)] + argv)
                reloads.append(ph)
            t_end = time.perf_counter()
        problems = [f"{cmd} exited with {rc}" for cmd, rc in rcs.items() if rc != 0]

        def span_s(name):
            return [(s.t1 - s.t0) * clock.factor_at(s.t0) for s in phases.spans if s.name == name]

        outcome = Outcome(
            total_s=run.s + sum(ph.s for ph in reloads),
            raw_s=run.raw_s + sum(ph.raw_s for ph in reloads),
            protocol_s=sum(span_s("federation.run_protocol")),
            metrics_s=span_s("metrics.compute_metrics"),
            adapt_s=span_s("adaptation.adapt_unseen"), t_end=t_end,
            sample_epochs=_work(updates), rounds_executed=_rounds_printed(stdout.getvalue()),
            mean_acc=math.nan, ari=math.nan,
            route_acc=math.nan, digest="", attempted=len(rcs), problems=problems,
            extra={"cli_run_s": run.s, "cli_reload_s": sum(ph.s for ph in reloads)})
        if not problems:
            try:
                self._check(out, data, csv_from_run, outcome)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"artifacts unreadable: {exc!r}")
        outcome.extra["artifact_bytes"] = sum(p.stat().st_size for p in out.rglob("*")
                                              if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
        return outcome

    def _check(self, out: Path, data, csv_from_run: bytes, outcome: Outcome):
        problems = outcome.problems
        csv_bytes = (out / "metrics.csv").read_bytes()
        if csv_bytes != csv_from_run:
            problems.append("report did not rewrite metrics.csv byte-identically")
        clustering = json.loads((out / "clustering.json").read_text())
        diag = json.loads((out / "diag.json").read_text())
        labels = clustering["labels"]
        if diag["labels"] != labels:
            problems.append("cluster-diag labels differ from clustering.json")
        manifest = json.loads((out / "manifest.json").read_text())
        missing = [f for f in manifest["files"] if not (out / f).is_file()]
        if missing:
            problems.append(f"manifest lists missing files: {missing[:3]}")
        metrics = json.loads((out / "metrics.json").read_text())
        rows = _read_csv(out / "metrics.csv")
        roundlog = _read_csv(out / "roundlog.csv")
        adapt = _read_csv(out / "adapt.csv")
        if len(rows) != len(data.clients) or len(labels) != len(data.clients):
            problems.append("the run did not cover every participating client")
        per_client = {}
        for row in adapt:
            per_client.setdefault(int(row["client_id"]), []).append(row)
        if (sorted(per_client) != list(range(len(data.unseen)))
                or any(len(v) != ADAPT_EPOCHS + 1 for v in per_client.values())):
            problems.append("adapt.csv does not hold every unseen client's trajectory")
        outcome.attempted += len(per_client)
        if outcome.rounds_executed == 0:
            problems.append("run printed no round count")
        gate(problems, clustering["k_star"], clustering["k_range"],
             [float(r["acc"]) for r in rows] + [float(r["test_accuracy"]) for r in adapt],
             [float(r["G_c"]) for r in rows], [float(r["G_l"]) for r in rows],
             metrics["stage_mean_accuracy"],
             [float(r[k]) for r in roundlog for k in ("rho", "weighted_train_loss")])
        outcome.mean_acc = metrics["mean_accuracy"]
        outcome.ari = metrics["ari"]
        assigned = [int(per_client[u][0]["assigned_cluster"]) for u in sorted(per_client)]
        outcome.route_acc = route_accuracy(labels, data.true_clusters,
                                           data.unseen_true_clusters, assigned)
        outcome.digest = hashlib.sha256(csv_bytes + (out / "adapt.csv").read_bytes()).hexdigest()


def _rounds_printed(text: str) -> int:
    """The round count ``fedtier run`` prints; 0 when it printed none."""
    found = _ROUNDS.search(text)
    return int(found.group(1)) if found else 0


WORKLOADS = {
    "readme_full": LibraryWorkload("readme_full", n_total=40, per_class=320,
                                   batch_mode="full"),
    "scale90_mini": LibraryWorkload("scale90_mini", n_total=120, per_class=960,
                                    batch_mode="mini"),
    "cli_roundtrip_w2": CliWorkload("cli_roundtrip_w2", n_total=40, per_class=320,
                                    workers=2),
}
