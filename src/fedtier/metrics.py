"""Evaluation: per-client accuracy, tail statistics, stage-wise tier gains,
clustering agreement scores, and cross-tier orthogonality summaries."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, PreconditionError
from .federation import TrainedFederation, weights_cluster
from .linalg import frobenius_norm, orthonormal_columns, subspace_overlap
from .lora import AdapterPath, compose_path
from .model import EncodedData, HeadModel, encode, _loss_for_weight

# leaves (or clusters) whose B factor is this small carry no direction and are
# excluded from subspace statistics
_NEGLIGIBLE_B = 1e-6


def accuracy(model: HeadModel, path: AdapterPath, test) -> float:
    """Fraction of argmax-correct predictions over a sample list or its
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

    g_cluster is measured on the client's cluster data (size-weighted over the
    cluster's members), g_leaf and g_cluster_own on the client's own train
    split; the own-data pair satisfies root-to-leaf additivity.
    """

    g_cluster: float
    g_leaf: float
    g_cluster_own: float


def _cluster_losses(fed: TrainedFederation, j: int, train: dict) -> tuple[float, float]:
    """Size-weighted train loss over cluster j's members under the root-only
    and the root+cluster weights; `train` maps a member to its EncodedData.
    Both weights depend on j alone, so every member of j shares the pair."""
    if fed.server.root is None:
        raise ConfigurationError("federation has no frozen root snapshot")
    members = fed.server.assignment.members(j)
    w_members = weights_cluster(fed.data.train_sizes, members)
    w_root = compose_path(fed.path_root(members[0]), fed.model.w0)
    w_cluster = compose_path(fed.path_cluster(members[0]), fed.model.w0)

    def cluster_loss(w_eff):
        total = 0.0
        for pos, member in enumerate(members):
            total += float(w_members[pos]) * _loss_for_weight(w_eff, train[member])
        return total

    return cluster_loss(w_root), cluster_loss(w_cluster)


def _gains(fed: TrainedFederation, client_id: int, enc_own: EncodedData,
           cluster_losses: tuple[float, float]) -> TierGains:
    model = fed.model
    w_root = compose_path(fed.path_root(client_id), model.w0)
    w_cluster = compose_path(fed.path_cluster(client_id), model.w0)
    w_full = compose_path(fed.path_full(client_id), model.w0)
    g_cluster = cluster_losses[0] - cluster_losses[1]
    g_cluster_own = _loss_for_weight(w_root, enc_own) - _loss_for_weight(w_cluster, enc_own)
    g_leaf = _loss_for_weight(w_cluster, enc_own) - _loss_for_weight(w_full, enc_own)
    return TierGains(g_cluster=g_cluster, g_leaf=g_leaf, g_cluster_own=g_cluster_own)


def tier_gains(fed: TrainedFederation, client_id: int) -> TierGains:
    j = fed.clients[client_id].cluster
    needed = set(fed.server.assignment.members(j)) | {client_id}
    train = {i: encode(fed.model, fed.data.clients[i].train) for i in needed}
    return _gains(fed, client_id, train[client_id], _cluster_losses(fed, j, train))


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
    la, lb = np.unique(labels), np.unique(truth)
    cont = np.zeros((len(la), len(lb)))
    for i, a in enumerate(la):
        for j, b in enumerate(lb):
            cont[i, j] = np.sum((labels == a) & (truth == b))
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


def compute_metrics(fed: TrainedFederation) -> MetricsReport:
    """Evaluate every participating client on its own test split at each stage
    snapshot, collect tier gains, overlaps, and clustering agreement.

    Each client's train and test split is encoded once, and each cluster's
    member losses are computed once for all of its members."""
    ids, clusters = [], []
    acc_full, acc_root, acc_cluster = [], [], []
    g_c, g_l, g_co = [], [], []
    train = {c.id: encode(fed.model, c.data.train) for c in fed.clients}
    cluster_losses = {}
    for client in fed.clients:
        ids.append(client.id)
        clusters.append(int(client.cluster))
        test = encode(fed.model, client.data.test)
        acc_full.append(accuracy(fed.model, fed.path_full(client.id), test))
        acc_root.append(accuracy(fed.model, fed.path_root(client.id), test))
        acc_cluster.append(accuracy(fed.model, fed.path_cluster(client.id), test))
        if client.cluster not in cluster_losses:
            cluster_losses[client.cluster] = _cluster_losses(fed, client.cluster, train)
        gains = _gains(fed, client.id, train[client.id], cluster_losses[client.cluster])
        g_c.append(gains.g_cluster)
        g_l.append(gains.g_leaf)
        g_co.append(gains.g_cluster_own)
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
        gains_cluster=g_c, gains_leaf=g_l, gains_cluster_own=g_co,
        orthogonality=orthogonality_report(fed),
        ari=ari, nmi=nmi,
        stage_mean_accuracy={"root": float(np.mean(acc_root)),
                             "cluster": float(np.mean(acc_cluster)),
                             "leaf": float(np.mean(acc_full))})
