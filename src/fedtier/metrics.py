"""Evaluation: per-client accuracy, tail statistics, stage-wise tier gains,
clustering agreement scores, and cross-tier orthogonality summaries.

Scores come from the model's blocked kernel: accuracy is its argmax score
and the tier gains its loss. compute_metrics builds each client's root-only,
root+cluster and full head weights once from the federation's tiers and
scores every client at the three snapshots as stacks: the losses over the
federation's train stack (TrainedFederation.train, which the stages trained
on and whose layout they packed), the accuracies over the test splits, the
only rows encoded here; the orthogonality report is three stacked
subspace_overlap calls."""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import PreconditionError
from .federation import TrainedFederation, weights_cluster
from .linalg import directed_bases, one_blas_thread, orthonormal_columns, subspace_overlap
from .lora import AdapterPath, compose_path, delta
from .model import (ClientStack, HeadModel, encode, _stack_accuracy, _stack_losses,
                    _stack_of_one)


def accuracy(model: HeadModel, path: AdapterPath, test) -> float:
    """Fraction of argmax-correct predictions over Samples, their EncodedData
    or a one-client ClientStack; ties pick the lowest class. The blocked
    kernel's accuracy on a stack of one."""
    if len(test) == 0:
        raise PreconditionError("test set is empty")
    return float(_stack_accuracy(compose_path(path, model.w0)[None],
                                 _stack_of_one(model, test))[0])


def worst_decile(accs) -> float:
    """Mean of the lowest ceil(0.1 * N) values."""
    accs = list(accs)
    if not accs:
        raise PreconditionError("no accuracies given")
    k = math.ceil(0.1 * len(accs))
    return float(np.mean(sorted(accs)[:k]))


@dataclass
class TierGains:
    """Loss reductions contributed by the cluster and leaf tiers.

    g_leaf and g_cluster_own are measured on the client's own train split and
    satisfy root-to-leaf additivity. g_cluster is measured on the client's
    cluster data: every member of cluster j shares j's root and root+cluster
    weights, so the size-weighted cluster loss drop is
    G_c = sum_m pi_m * g_cluster_own[m] over j's members m.
    """

    g_cluster: float
    g_leaf: float
    g_cluster_own: float


def _stage_weights(fed: TrainedFederation, ids: list[int]) -> list[np.ndarray]:
    """The (len(ids), C, h) head weights of `ids` at each stage snapshot:
    root only, root+cluster and the full path. w0 + the root update is
    formed once, then each client's cluster and leaf updates are added in
    compose_path's order, so each weight is its path's compose_path bitwise."""
    root = fed.model.w0 + delta(fed.server.root)
    labels = fed.server.assignment.labels
    cluster = np.stack([root + delta(fed.server.clusters[int(labels[i])]) for i in ids])
    full = cluster + np.stack([delta(fed.leaves[i]) for i in ids])
    return [np.stack([root] * len(ids)), cluster, full]


def _gains(fed: TrainedFederation, ids: list[int], train: ClientStack, weights):
    """The (g_cluster, g_leaf, g_cluster_own) columns of `ids`, which must
    form whole clusters, from three stacked loss passes over `train`, their
    train splits in order, under their _stage_weights. A client's losses do
    not depend on its stack mates, so any set of whole clusters gives a
    client the same gains bitwise."""
    l_root, l_cluster, l_full = (_stack_losses(w, train) for w in weights)
    own = dict(zip(ids, (l_root - l_cluster).tolist()))
    labels = fed.server.assignment.labels[ids].tolist()
    g_cluster = {}
    for j in set(labels):
        members = fed.server.assignment.members(j)
        pi = weights_cluster(fed.data.train_sizes, members)
        g_cluster[j] = float(sum(w * own[m] for w, m in zip(pi, members)))
    return [g_cluster[j] for j in labels], (l_cluster - l_full).tolist(), [own[i] for i in ids]


def tier_gains(fed: TrainedFederation, client_id: int) -> TierGains:
    """The gains of one client, from the three loss passes over its
    cluster's members' rows of the federation's train stack."""
    members = fed.server.assignment.members(fed.cluster_of(client_id))
    gains = _gains(fed, members, fed.train[members], _stage_weights(fed, members))
    return TierGains(*(column[members.index(client_id)] for column in gains))


def _comb2(x: np.ndarray) -> float:
    return float(np.sum(x * (x - 1) / 2.0))


def clustering_quality(labels, truth) -> tuple[float, float]:
    """(ARI, NMI) between two partitions.

    ARI uses the pair-counting adjusted form; NMI normalizes mutual
    information by the arithmetic mean of the entropies. Both are invariant to
    label renaming.
    """
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    if labels.shape != truth.shape:
        raise PreconditionError("label vectors must have equal length")
    n = len(labels)
    la, ia = np.unique(labels, return_inverse=True)
    lb, ib = np.unique(truth, return_inverse=True)
    cont = np.zeros((len(la), len(lb)))
    np.add.at(cont, (ia, ib), 1.0)
    a_marg = cont.sum(axis=1)
    b_marg = cont.sum(axis=0)

    sum_cells = _comb2(cont)
    sum_a = _comb2(a_marg)
    sum_b = _comb2(b_marg)
    total = n * (n - 1) / 2.0
    expected = sum_a * sum_b / total if total > 0 else 0.0
    max_index = (sum_a + sum_b) / 2.0
    denom = max_index - expected
    ari = 1.0 if denom == 0.0 else (sum_cells - expected) / denom

    pa = a_marg / n
    pb = b_marg / n
    h_a = -float(np.sum(pa[pa > 0] * np.log(pa[pa > 0])))
    h_b = -float(np.sum(pb[pb > 0] * np.log(pb[pb > 0])))
    mi = 0.0
    for i in range(len(la)):
        for j in range(len(lb)):
            if cont[i, j] > 0:
                pij = cont[i, j] / n
                mi += pij * math.log(pij / (pa[i] * pb[j]))
    mean_h = (h_a + h_b) / 2.0
    nmi = 1.0 if mean_h == 0.0 else mi / mean_h
    return float(ari), float(nmi)


@dataclass
class PairOverlap:
    mean: float | None
    max: float | None
    count: int
    excluded: int


@dataclass
class OrthogonalityReport:
    """Normalized subspace overlap (mean cos^2 theta) per tier pair, with
    factors that span no direction (linalg.directed_bases) excluded and
    counted."""

    pairs: dict[str, PairOverlap]


def orthogonality_report(fed: TrainedFederation) -> OrthogonalityReport:
    """Three stacked overlaps: the root basis against every client's cluster
    basis and against every leaf basis, and each client's cluster basis
    against its own leaf basis (the diagonal of one cluster-by-leaf call).
    The bases and their masks come from one linalg.directed_bases call over
    the clusters' B factors, indexed to the clients by label, and one over
    the leaves' B factors; a client whose factor on either side spans no
    direction enters no overlap."""
    rank = fed.config.rank
    ids = sorted(fed.server.clusters)
    of_client = np.searchsorted(ids, fed.server.assignment.labels)
    u_root = orthonormal_columns(fed.server.root.b, rank)
    cluster_b = np.stack([fed.server.clusters[j].b for j in ids])
    u_cluster, has_cluster = (part[of_client] for part in directed_bases(cluster_b, rank))
    u_leaf, has_leaf = directed_bases(np.stack([ad.b for ad in fed.leaves]), rank)
    pairs = {}
    for name, first, second, kept in (("root_cluster", None, u_cluster, has_cluster),
                                      ("root_leaf", None, u_leaf, has_leaf),
                                      ("cluster_leaf", u_cluster, u_leaf, has_cluster & has_leaf)):
        # a pair with no kept client overlaps empty stacks and has no mean or max
        vals = (subspace_overlap(u_root, second[kept]) if first is None else np.diagonal(
            subspace_overlap(first[kept], second[kept]))) / rank
        stats = (float(np.mean(vals)), float(np.max(vals))) if vals.size else (None, None)
        pairs[name] = PairOverlap(*stats, count=vals.size, excluded=len(kept) - vals.size)
    return OrthogonalityReport(pairs=pairs)


# each per-client column of the metrics files: (MetricsReport field, key in a
# metrics.json client record, metrics.csv header or None if JSON only);
# metrics.csv keeps the table's order
CLIENT_COLUMNS = (("client_ids", "id", "client_id"), ("clusters", "cluster", "cluster"),
                  ("accuracies", "accuracy", "acc"), ("accuracies_root", "accuracy_root", None),
                  ("accuracies_cluster", "accuracy_cluster", None),
                  ("gains_cluster", "gain_cluster", "G_c"), ("gains_leaf", "gain_leaf", "G_l"),
                  ("gains_cluster_own", "gain_cluster_own", None))


@dataclass
class MetricsReport:
    """Everything the evaluation protocol reports for one trained federation."""

    client_ids: list[int]
    clusters: list[int]
    accuracies: list[float]              # final personalized (full path)
    accuracies_root: list[float]         # root-only snapshot
    accuracies_cluster: list[float]      # root+cluster snapshot
    mean_accuracy: float
    worst_decile_accuracy: float
    per_cluster_accuracy: dict[int, float]
    gains_cluster: list[float]
    gains_leaf: list[float]
    gains_cluster_own: list[float]
    orthogonality: OrthogonalityReport
    ari: float | None = None
    nmi: float | None = None
    stage_mean_accuracy: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The metrics.json payload: each field under its own name, except
        that the CLIENT_COLUMNS fields become one record per client under
        "clients", per_cluster_accuracy is keyed by the cluster id as a
        string, and orthogonality is its pairs."""
        payload = asdict(self)
        names, keys, _ = zip(*CLIENT_COLUMNS)
        payload["clients"] = [dict(zip(keys, row)) for row in zip(*map(payload.pop, names))]
        payload["per_cluster_accuracy"] = {str(k): v for k, v in
                                           sorted(self.per_cluster_accuracy.items())}
        payload["orthogonality"] = payload["orthogonality"]["pairs"]
        return payload


@one_blas_thread()
def compute_metrics(fed: TrainedFederation) -> MetricsReport:
    """Evaluate every participating client on its own test split at each stage
    snapshot, collect tier gains, overlaps, and clustering agreement.

    The three stage snapshots' head weights are built once and read by
    three stacked accuracy passes over the test stack, each client's test
    split encoded once, and three stacked loss passes over fed.train, the
    run's train stack in client order, encoded by run_protocol or, after
    a reload, on first read (one _gains call; see TierGains for the G_c
    identity). BLAS runs on one thread (linalg.one_blas_thread)."""
    ids = list(range(fed.config.n_clients))
    clusters = fed.server.assignment.labels.tolist()
    weights = _stage_weights(fed, ids)
    test = ClientStack([encode(fed.model, c.test) for c in fed.data.clients])
    acc_root, acc_cluster, acc_full = (_stack_accuracy(w, test).tolist() for w in weights)
    gains_cluster, gains_leaf, gains_cluster_own = _gains(fed, ids, fed.train, weights)
    per_cluster = {j: float(np.mean([a for a, c in zip(acc_full, clusters) if c == j]))
                   for j in sorted(set(clusters))}
    truth = fed.data.true_clusters
    ari = nmi = None
    if truth is not None:
        ari, nmi = clustering_quality(fed.server.assignment.labels, truth)
    return MetricsReport(
        client_ids=ids, clusters=clusters, accuracies=acc_full,
        accuracies_root=acc_root, accuracies_cluster=acc_cluster,
        mean_accuracy=float(np.mean(acc_full)),
        worst_decile_accuracy=worst_decile(acc_full),
        per_cluster_accuracy=per_cluster,
        gains_cluster=gains_cluster, gains_leaf=gains_leaf, gains_cluster_own=gains_cluster_own,
        orthogonality=orthogonality_report(fed),
        ari=ari, nmi=nmi,
        stage_mean_accuracy={"root": float(np.mean(acc_root)),
                             "cluster": float(np.mean(acc_cluster)),
                             "leaf": float(np.mean(acc_full))})
