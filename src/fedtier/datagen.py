"""Synthetic labeled pools, non-IID client partitions, and the unseen split.

Three label-skew schemes mirror common federated benchmarks: a Dirichlet
prior over all classes (GlDir), a Dirichlet over superclasses with uniform
label choice inside each superclass (ScDir), and a pathological scheme that
hands each client a fixed number of distinct labels (Patho). A fourth
generator (ClusterShift) plants known latent groups: each group owns a label
subset and a fixed feature-space rotation, giving clustering a checkable
ground truth.

Dirichlet-based schemes distribute half of the pool (total // (2 N) samples
per client) so that skewed label demands stay feasible; draws that oversubscribe
any class are retried with a fresh sub-stream. Attempt k of any scheme draws
from ``numpy.random.default_rng([seed, k])``; inside an attempt the draw
order is: priors (one vectorized Dirichlet), then one multinomial per client
in ascending order, then one permutation per class in ascending class order,
then one shuffle per client for the 80/20 train/test split.

Pools and client splits hold their rows as `Samples` arrays: partitioners deal
pool row indices to clients, then take each client's rows once.
"""

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, GenerationError
from .model import Samples

logger = logging.getLogger(__name__)

_MIN_CLIENT_SAMPLES = 10
_MAX_ATTEMPTS = 100


@dataclass
class LabeledPool:
    """Gaussian-blob class pool with generator metadata."""

    samples: Samples
    class_count: int
    feature_dim: int
    class_means: np.ndarray  # C×d


@dataclass(frozen=True)
class GlDir:
    alpha: float


@dataclass(frozen=True)
class ScDir:
    alpha: float
    superclass_of: tuple | None = None  # class -> superclass; default: 10 equal blocks


@dataclass(frozen=True)
class Patho:
    classes_per_client: int


@dataclass(frozen=True)
class ClusterShift:
    k_true: int
    rotation_angle: float
    label_subset_size: int


@dataclass
class ClientSplit:
    train: Samples
    test: Samples
    true_cluster: int | None = None

    @property
    def n_train(self) -> int:
        return len(self.train)


@dataclass
class FederationData:
    """Per-client train/test splits plus held-out unseen clients."""

    clients: list[ClientSplit]
    unseen: list[ClientSplit] = field(default_factory=list)
    class_count: int = 0
    feature_dim: int = 0
    label_priors: np.ndarray | None = None

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    @property
    def train_sizes(self) -> list[int]:
        return [c.n_train for c in self.clients]

    @property
    def true_clusters(self) -> np.ndarray | None:
        marks = [c.true_cluster for c in self.clients]
        if any(m is None for m in marks):
            return None
        return np.array(marks, dtype=np.int64)

    @property
    def unseen_true_clusters(self) -> np.ndarray | None:
        marks = [c.true_cluster for c in self.unseen]
        if not marks or any(m is None for m in marks):
            return None
        return np.array(marks, dtype=np.int64)


def gen_pool(class_count: int, feature_dim: int, per_class: int,
             separation: float, seed: int) -> LabeledPool:
    """Gaussian blobs: class c gets a random unit direction scaled by
    `separation` as its mean and unit covariance."""
    if class_count < 1 or feature_dim < 1 or per_class < 1:
        raise ConfigurationError("pool dimensions must be positive")
    if separation < 0:
        raise ConfigurationError("separation must be non-negative")
    rng = np.random.default_rng(seed)
    means = np.zeros((class_count, feature_dim))
    for c in range(class_count):
        v = rng.normal(size=feature_dim)
        means[c] = separation * v / np.linalg.norm(v)
    x = np.concatenate([rng.normal(size=(per_class, feature_dim)) + m for m in means])
    samples = Samples(x, np.repeat(np.arange(class_count), per_class))
    return LabeledPool(samples=samples, class_count=class_count,
                       feature_dim=feature_dim, class_means=means)


def _deal(pool, owners, n_clients, rng) -> list[Samples]:
    """Each client's rows of the pool, taken once. owners[c] names the client
    of each row dealt from class c, in dealing order, or is None when class c
    is not dealt. Each dealt class is shuffled once, in class order, and its
    first rows go out; a client's rows keep their dealing order."""
    dealt = [rng.permutation(np.flatnonzero(pool.samples.y == c))[:len(who)]
             for c, who in enumerate(owners) if who is not None]
    owner = np.concatenate([who for who in owners if who is not None])
    by_client = np.concatenate(dealt)[np.argsort(owner, kind="stable")]
    bounds = np.cumsum(np.bincount(owner, minlength=n_clients))[:-1]
    return [pool.samples[ix] for ix in np.split(by_client, bounds)]


def _evenly(pool, owners) -> list[np.ndarray | None]:
    """Row owners that split class c among the clients in owners[c] as
    np.array_split does (None for a class nobody owns)."""
    sizes = np.bincount(pool.samples.y, minlength=pool.class_count)
    return [np.repeat(who, n // len(who) + (np.arange(len(who)) < n % len(who)))
            if who else None for who, n in zip(owners, sizes)]


def _train_test_split(samples: Samples, rng: np.random.Generator,
                      true_cluster: int | None) -> ClientSplit:
    n = len(samples)
    order = rng.permutation(n)
    n_train = min(max(int(round(0.8 * n)), 1), n - 1)
    return ClientSplit(train=samples[order[:n_train]], test=samples[order[n_train:]],
                       true_cluster=true_cluster)


def _assemble(pool, per_client_samples, rng, true_clusters=None, priors=None):
    clients = []
    for i, samples in enumerate(per_client_samples):
        tc = None if true_clusters is None else int(true_clusters[i])
        clients.append(_train_test_split(samples, rng, tc))
    return FederationData(clients=clients, class_count=pool.class_count,
                          feature_dim=pool.feature_dim, label_priors=priors)


def _default_superclasses(class_count: int) -> np.ndarray:
    n_super = min(10, class_count)
    return np.array([c * n_super // class_count for c in range(class_count)])


def _dirichlet_counts(rng, priors, n_each, available):
    """Per-client multinomial label counts; None if any class is oversubscribed."""
    counts = np.stack([rng.multinomial(n_each, priors[i]) for i in range(len(priors))])
    if np.any(counts.sum(axis=0) > available):
        return None
    return counts


def _partition_dirichlet(pool, label_priors_fn, n_clients, seed):
    total = len(pool.samples)
    n_each = total // (2 * n_clients)
    if n_each < _MIN_CLIENT_SAMPLES:
        raise GenerationError(
            f"pool too small: {total} samples give {n_each} per client (< {_MIN_CLIENT_SAMPLES})"
        )
    available = np.bincount(pool.samples.y, minlength=pool.class_count)
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        priors = label_priors_fn(rng)
        counts = _dirichlet_counts(rng, priors, n_each, available)
        if counts is None:
            continue
        # every class is dealt, following the drawn label counts
        clients = np.arange(n_clients)
        per_client = _deal(pool, [np.repeat(clients, k) for k in counts.T], n_clients, rng)
        return _assemble(pool, per_client, rng, priors=priors)
    raise GenerationError("could not draw a feasible Dirichlet partition "
                          f"after {_MAX_ATTEMPTS} attempts")


def _partition_gldir(pool, spec: GlDir, n_clients, seed):
    c = pool.class_count

    def priors_fn(rng):
        return rng.dirichlet(np.full(c, spec.alpha), size=n_clients)

    return _partition_dirichlet(pool, priors_fn, n_clients, seed)


def _partition_scdir(pool, spec: ScDir, n_clients, seed):
    c = pool.class_count
    sc = (np.array(spec.superclass_of) if spec.superclass_of is not None
          else _default_superclasses(c))
    if sc.shape != (c,):
        raise ConfigurationError("superclass map must cover every class")
    n_super = int(sc.max()) + 1
    size_of = np.bincount(sc, minlength=n_super).astype(np.float64)

    def priors_fn(rng):
        sup = rng.dirichlet(np.full(n_super, spec.alpha), size=n_clients)
        return sup[:, sc] / size_of[sc]

    return _partition_dirichlet(pool, priors_fn, n_clients, seed)


def _partition_patho(pool, spec: Patho, n_clients, seed):
    c = pool.class_count
    if spec.classes_per_client > c:
        raise ConfigurationError("classes_per_client exceeds the class count")
    if spec.classes_per_client < 1:
        raise ConfigurationError("classes_per_client must be positive")
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        order = rng.permutation(c)
        owners = [[] for _ in range(c)]
        for i in range(n_clients):
            for j in range(spec.classes_per_client):
                owners[order[(i * spec.classes_per_client + j) % c]].append(i)
        per_client = _deal(pool, _evenly(pool, owners), n_clients, rng)
        if min(len(s) for s in per_client) >= _MIN_CLIENT_SAMPLES:
            return _assemble(pool, per_client, rng)
    raise GenerationError("pathological partition left some client under "
                          f"{_MIN_CLIENT_SAMPLES} samples")


def _plane_rotation(dim: int, angle: float, rng) -> np.ndarray:
    """Rotation by `angle` inside a random 2-plane of R^dim."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
    u, v = q[:, 0], q[:, 1]
    return (np.eye(dim)
            + (math.cos(angle) - 1.0) * (np.outer(u, u) + np.outer(v, v))
            + math.sin(angle) * (np.outer(u, v) - np.outer(v, u)))


def _partition_clustershift(pool, spec: ClusterShift, n_clients, seed):
    c = pool.class_count
    if spec.k_true < 1 or spec.k_true > n_clients:
        raise ConfigurationError("k_true must be in [1, n_clients]")
    if spec.label_subset_size < 1:
        raise ConfigurationError("label_subset_size must be positive")
    if pool.feature_dim < 2:
        raise ConfigurationError("feature rotation needs at least 2 dimensions")
    group_of = np.array([i % spec.k_true for i in range(n_clients)])
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, attempt])
        perm = rng.permutation(c)
        subset_of_group = [
            {int(perm[(g * spec.label_subset_size + j) % c])
             for j in range(spec.label_subset_size)}
            for g in range(spec.k_true)
        ]
        rotations = [_plane_rotation(pool.feature_dim, spec.rotation_angle, rng)
                     for _ in range(spec.k_true)]
        owners = [[] for _ in range(c)]
        for i in range(n_clients):
            for cls in sorted(subset_of_group[group_of[i]]):
                owners[cls].append(i)
        per_client = _deal(pool, _evenly(pool, owners), n_clients, rng)
        if min(len(s) for s in per_client) >= _MIN_CLIENT_SAMPLES:
            # the stacked mat-vec rotates each row exactly as rot @ x alone
            per_client = [Samples((rotations[g] @ s.x[:, :, None])[:, :, 0], s.y)
                          for g, s in zip(group_of, per_client)]
            return _assemble(pool, per_client, rng, true_clusters=group_of)
    raise GenerationError("cluster-shift partition left some client under "
                          f"{_MIN_CLIENT_SAMPLES} samples")


def partition(pool: LabeledPool, spec, n_clients: int, seed: int) -> FederationData:
    """Split the pool across clients according to the scheme."""
    if n_clients < 1:
        raise ConfigurationError("n_clients must be positive")
    if isinstance(spec, GlDir):
        if spec.alpha <= 0:
            raise ConfigurationError("Dirichlet alpha must be positive")
        return _partition_gldir(pool, spec, n_clients, seed)
    if isinstance(spec, ScDir):
        if spec.alpha <= 0:
            raise ConfigurationError("Dirichlet alpha must be positive")
        return _partition_scdir(pool, spec, n_clients, seed)
    if isinstance(spec, Patho):
        return _partition_patho(pool, spec, n_clients, seed)
    if isinstance(spec, ClusterShift):
        return _partition_clustershift(pool, spec, n_clients, seed)
    raise ConfigurationError(f"unknown partition spec {spec!r}")


def split_unseen(data: FederationData, fraction: float, seed: int) -> FederationData:
    """Hold out ceil(fraction * N) clients, chosen uniformly at random.

    When ground-truth groups are present, a draw that would strip any group of
    all its participating clients is resampled (logged), bounded by retries.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError("unseen fraction must lie in (0, 1)")
    n = data.n_clients
    n_unseen = math.ceil(fraction * n)
    truth = data.true_clusters
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng([seed, 7, attempt])  # stream disjoint from partition's
        chosen = set(int(i) for i in rng.choice(n, size=n_unseen, replace=False))
        if truth is not None:
            kept = [truth[i] for i in range(n) if i not in chosen]
            if set(kept) != set(int(g) for g in truth):
                logger.warning("unseen split attempt %d emptied a true cluster; resampling", attempt)
                continue
        clients = [data.clients[i] for i in range(n) if i not in chosen]
        unseen = list(data.unseen) + [data.clients[i] for i in sorted(chosen)]
        return FederationData(clients=clients, unseen=unseen,
                              class_count=data.class_count,
                              feature_dim=data.feature_dim,
                              label_priors=None)
    raise GenerationError("could not split unseen clients while keeping every "
                          "true cluster represented")


def load_csv(path: str | Path, seed: int = 0) -> FederationData:
    """Ingest an external dataset: one row per sample, header
    ``client_id,label,f0..f{d-1}`` required. Labels are integers 0..C-1.
    Applies the standard per-client 80/20 split."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["client_id", "label"]:
            raise ConfigurationError("CSV header must start with client_id,label")
        d = len(header) - 2
        if d < 1 or header[2:] != [f"f{i}" for i in range(d)]:
            raise ConfigurationError("CSV feature columns must be f0..f{d-1}")
        rows = []
        for lineno, r in enumerate(reader, start=2):
            if len(r) != d + 2:
                raise ConfigurationError(f"CSV line {lineno} has {len(r)} fields, "
                                         f"expected {d + 2}")
            try:
                rows.append((int(r[0]), int(r[1]), [float(v) for v in r[2:]]))
            except ValueError as exc:
                raise ConfigurationError(f"CSV line {lineno}: {exc}") from exc
    if not rows:
        raise ConfigurationError("CSV contains no samples")
    ids, labels, feats = zip(*rows)
    ids, samples = np.array(ids), Samples(feats, labels)
    bad = np.flatnonzero(~np.isfinite(samples.x).all(axis=1))
    if bad.size:
        raise ConfigurationError(f"CSV line {bad[0] + 2}: non-finite feature")
    if samples.y.min() < 0:
        raise ConfigurationError("labels must be non-negative integers")
    rng = np.random.default_rng([seed, len(ids)])
    clients = []
    for cid in np.unique(ids):
        if np.count_nonzero(ids == cid) < 2:
            raise ConfigurationError(f"client {cid} has fewer than 2 samples")
        clients.append(_train_test_split(samples[ids == cid], rng, None))
    return FederationData(clients=clients, class_count=int(samples.y.max()) + 1,
                          feature_dim=d)
