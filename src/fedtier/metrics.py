"""Evaluation: per-client accuracy, tail statistics, stage-wise tier gains,
clustering agreement scores, and cross-tier orthogonality summaries.

Scores come from the model's blocked kernel: accuracy is its argmax score
and the tier gains its loss. compute_metrics builds each client's root-only,
root+cluster and full head weights once and scores every client at the three
snapshots as stacks: the losses over the federation's train stack
(TrainedFederation.train, which the stages trained on and whose layout they
packed), the accuracies over the test splits, the only rows encoded here;
the orthogonality report is three stacked subspace_overlap calls."""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import PreconditionError
from .federation import TrainedFederation, weights_cluster
from .linalg import frobenius_norm, one_blas_thread, orthonormal_columns, subspace_overlap
from .lora import AdapterPath, compose_path
from .model import (ClientStack, HeadModel, encode, _stack_accuracy, _stack_losses,
                    _stack_of_one)

# leaves (or clusters) whose B factor is this small carry no direction and are
# excluded from subspace statistics
_NEGLIGIBLE_B = 1e-6


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
    root only, root+cluster and the full path."""
    return [np.stack([compose_path(path_of(i), fed.model.w0) for i in ids])
            for path_of in (fed.path_root, fed.path_cluster, fed.path_full)]


def _gains(fed: TrainedFederation, ids: list[int], train: ClientStack, weights):
    """The (g_cluster, g_leaf, g_cluster_own) columns of `ids`, which must
    form whole clusters, from three stacked loss passes over `train`, their
    train splits in order, under their _stage_weights. A client's losses do
    not depend on its stack mates, so any set of whole clusters gives a
    client the same gains bitwise."""
    l_root, l_cluster, l_full = (_stack_losses(w, train) for w in weights)
    own = dict(zip(ids, (l_root - l_cluster).tolist()))
    g_cluster = {}
    for j in {fed.clients[i].cluster for i in ids}:
        members = fed.server.assignment.members(j)
        pi = weights_cluster(fed.data.train_sizes, members)
        g_cluster[j] = float(sum(w * own[m] for w, m in zip(pi, members)))
    return ([g_cluster[fed.clients[i].cluster] for i in ids], (l_cluster - l_full).tolist(),
            [own[i] for i in ids])


def tier_gains(fed: TrainedFederation, client_id: int) -> TierGains:
    """The gains of one client, from the three loss passes over its
    cluster's members' rows of the federation's train stack."""
    members = fed.server.assignment.members(fed.clients[client_id].cluster)
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
    degenerate (numerically zero) factors excluded and counted."""

    pairs: dict[str, PairOverlap]


def orthogonality_report(fed: TrainedFederation) -> OrthogonalityReport:
    """Three stacked overlaps: the root basis against every client's cluster
    basis and against every leaf basis, and each client's cluster basis
    against its own leaf basis (the diagonal of one cluster-by-leaf call).
    A client whose factor on either side is negligible enters no overlap."""
    rank = fed.config.rank

    def basis(b):
        return orthonormal_columns(b, rank) if frobenius_norm(b) > _NEGLIGIBLE_B else None

    u_cluster = {j: basis(ad.b) for j, ad in fed.server.clusters.items()}
    cluster = [u_cluster[c.cluster] for c in fed.clients]
    leaf = [basis(c.path.leaf.b) for c in fed.clients]
    u_root = orthonormal_columns(fed.server.root.b, rank)
    pairs = {}
    for name, first, second in (("root_cluster", None, cluster), ("root_leaf", None, leaf),
                                ("cluster_leaf", cluster, leaf)):
        kept = [i for i, u in enumerate(second)
                if u is not None and (first is None or first[i] is not None)]
        if not kept:
            pairs[name] = PairOverlap(mean=None, max=None, count=0, excluded=len(second))
            continue
        right = np.stack([second[i] for i in kept])
        vals = (subspace_overlap(u_root, right) if first is None else np.diagonal(
            subspace_overlap(np.stack([first[i] for i in kept]), right))) / rank
        pairs[name] = PairOverlap(mean=float(np.mean(vals)), max=float(np.max(vals)),
                                  count=len(kept), excluded=len(second) - len(kept))
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
    run's train stack in client order, encoded by run_protocol or the
    reload (one _gains call; see TierGains for the G_c identity). BLAS runs
    on one thread (linalg.one_blas_thread)."""
    ids = [client.id for client in fed.clients]
    clusters = [int(client.cluster) for client in fed.clients]
    weights = _stage_weights(fed, ids)
    test = ClientStack([encode(fed.model, c.data.test) for c in fed.clients])
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
