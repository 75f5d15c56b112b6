"""Evaluation: per-client accuracy, tail statistics, stage-wise tier gains,
clustering agreement scores, and cross-tier orthogonality summaries."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .federation import TrainedFederation, weights_cluster
from .linalg import frobenius_norm, one_blas_thread, orthonormal_columns, subspace_overlap
from .lora import AdapterPath, compose_path
from .model import ClientStack, EncodedData, HeadModel, encode, _stack_losses

# leaves (or clusters) whose B factor is this small carry no direction and are
# excluded from subspace statistics
_NEGLIGIBLE_B = 1e-6


def accuracy(model: HeadModel, path: AdapterPath, test) -> float:
    """Fraction of argmax-correct predictions over Samples or their
    EncodedData; ties pick the lowest class."""
    if len(test) == 0:
        raise PreconditionError("test set is empty")
    enc = test if isinstance(test, EncodedData) else encode(model, test)
    logits = enc.z @ compose_path(path, model.w0).T
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == enc.y))


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


def _gains(fed: TrainedFederation, ids: list[int], train: dict) -> list[TierGains]:
    """Tier gains of `ids`, which must form whole clusters, from three stacked
    loss passes (root-only, root+cluster and full weights) over their
    encoded train splits; `train` maps a client to its EncodedData. A
    client's losses do not depend on its stack mates, so any set of whole
    clusters gives a client the same gains bitwise."""
    if fed.server.root is None:
        raise ConfigurationError("federation has no frozen root snapshot")
    stack = ClientStack([train[i] for i in ids])

    def losses(path_of):
        return _stack_losses(np.stack([compose_path(path_of(i), fed.model.w0) for i in ids]),
                             stack)

    l_cluster = losses(fed.path_cluster)
    own = dict(zip(ids, losses(fed.path_root) - l_cluster))
    g_cluster = {}
    for j in {fed.clients[i].cluster for i in ids}:
        members = fed.server.assignment.members(j)
        pi = weights_cluster(fed.data.train_sizes, members)
        g_cluster[j] = float(sum(w * own[m] for w, m in zip(pi, members)))
    return [TierGains(g_cluster=g_cluster[fed.clients[i].cluster], g_leaf=float(leaf),
                      g_cluster_own=float(own[i]))
            for i, leaf in zip(ids, l_cluster - losses(fed.path_full))]


def tier_gains(fed: TrainedFederation, client_id: int) -> TierGains:
    members = fed.server.assignment.members(fed.clients[client_id].cluster)
    train = {i: encode(fed.model, fed.data.clients[i].train) for i in members}
    return _gains(fed, members, train)[members.index(client_id)]


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
    degenerate (numerically zero) factors excluded and counted."""

    pairs: dict[str, PairOverlap]


def orthogonality_report(fed: TrainedFederation) -> OrthogonalityReport:
    rank = fed.config.rank
    buckets = {"root_cluster": [], "root_leaf": [], "cluster_leaf": []}
    excluded = {k: 0 for k in buckets}
    u_root = orthonormal_columns(fed.server.root.b, rank)
    u_cluster = {j: (orthonormal_columns(ad.b, rank)
                     if frobenius_norm(ad.b) > _NEGLIGIBLE_B else None)
                 for j, ad in fed.server.clusters.items()}
    for client in fed.clients:
        uc = u_cluster[client.cluster]
        leaf_b = client.path.leaf.b
        ul = (orthonormal_columns(leaf_b, rank)
              if frobenius_norm(leaf_b) > _NEGLIGIBLE_B else None)
        for name, pair in (("root_cluster", (u_root, uc)),
                           ("root_leaf", (u_root, ul)),
                           ("cluster_leaf", (uc, ul))):
            if pair[0] is None or pair[1] is None:
                excluded[name] += 1
            else:
                buckets[name].append(subspace_overlap(pair[0], pair[1]) / rank)
    pairs = {}
    for name, vals in buckets.items():
        pairs[name] = PairOverlap(
            mean=float(np.mean(vals)) if vals else None,
            max=float(np.max(vals)) if vals else None,
            count=len(vals), excluded=excluded[name])
    return OrthogonalityReport(pairs=pairs)


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
        orth = {name: {"mean": po.mean, "max": po.max, "count": po.count,
                       "excluded": po.excluded}
                for name, po in self.orthogonality.pairs.items()}
        return {
            "clients": [
                {"id": cid, "cluster": cl, "accuracy": acc,
                 "accuracy_root": ar, "accuracy_cluster": ac,
                 "gain_cluster": gc, "gain_leaf": gl, "gain_cluster_own": go}
                for cid, cl, acc, ar, ac, gc, gl, go in zip(
                    self.client_ids, self.clusters, self.accuracies,
                    self.accuracies_root, self.accuracies_cluster,
                    self.gains_cluster, self.gains_leaf, self.gains_cluster_own)
            ],
            "mean_accuracy": self.mean_accuracy,
            "worst_decile_accuracy": self.worst_decile_accuracy,
            "per_cluster_accuracy": {str(k): v for k, v in
                                     sorted(self.per_cluster_accuracy.items())},
            "stage_mean_accuracy": self.stage_mean_accuracy,
            "orthogonality": orth,
            "ari": self.ari,
            "nmi": self.nmi,
        }


@one_blas_thread()
def compute_metrics(fed: TrainedFederation) -> MetricsReport:
    """Evaluate every participating client on its own test split at each stage
    snapshot, collect tier gains, overlaps, and clustering agreement.

    Each client's train and test split is encoded once, and all tier gains
    come from one _gains call over every client (see TierGains for the G_c
    identity). BLAS runs on one thread (linalg.one_blas_thread)."""
    ids = [client.id for client in fed.clients]
    clusters = [int(client.cluster) for client in fed.clients]
    acc_full, acc_root, acc_cluster = [], [], []
    for client in fed.clients:
        test = encode(fed.model, client.data.test)
        acc_full.append(accuracy(fed.model, fed.path_full(client.id), test))
        acc_root.append(accuracy(fed.model, fed.path_root(client.id), test))
        acc_cluster.append(accuracy(fed.model, fed.path_cluster(client.id), test))
    gains = _gains(fed, ids, {c.id: encode(fed.model, c.data.train) for c in fed.clients})
    per_cluster = {}
    for j in sorted(set(clusters)):
        vals = [a for a, c in zip(acc_full, clusters) if c == j]
        per_cluster[j] = float(np.mean(vals))
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
        gains_cluster=[g.g_cluster for g in gains], gains_leaf=[g.g_leaf for g in gains],
        gains_cluster_own=[g.g_cluster_own for g in gains],
        orthogonality=orthogonality_report(fed),
        ari=ari, nmi=nmi,
        stage_mean_accuracy={"root": float(np.mean(acc_root)),
                             "cluster": float(np.mean(acc_cluster)),
                             "leaf": float(np.mean(acc_full))})
