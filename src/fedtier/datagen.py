"""Synthetic labeled pools, non-IID client partitions, and the unseen split.

Three label-skew schemes mirror common federated benchmarks: a Dirichlet
prior over all classes (GlDir), a Dirichlet over superclasses with uniform
label choice inside each superclass (ScDir), and a pathological scheme that
hands each client a fixed number of distinct labels (Patho). A fourth
generator (ClusterShift) plants known latent groups: each group owns a label
subset and a fixed feature-space rotation, giving clustering a checkable
ground truth.

Two one-attempt rules cover the four schemes. The Dirichlet rule runs over a
class -> superclass map (GlDir is the identity map) and gives each client
total // (2 N) samples, so that skewed label demands stay feasible. The
label-subset rule gives each group of clients a run of a shuffled class
order: Patho makes every client its own group, ClusterShift puts client i in
group i % k_true and rotates each group's features. Attempt k draws from
``streams.stream(seed, "partition", k)`` in this order: the rule's draws
(Dirichlet: one vectorized Dirichlet, then one multinomial per client in
ascending order; label subsets: one class permutation, then ClusterShift's
plane rotation per group), one permutation per dealt class in ascending
class order, then one shuffle per client for the 80/20 train/test split.
`partition` keeps the first attempt that oversubscribes no class and gives
every client at least 10 samples; it and `split_unseen` spend their retry
budget in one loop, `_first_success`. When every class has the same size, as
`gen_pool` gives, the label-subset rule's row counts do not depend on the
drawn class order, so it decides feasibility once, before any draw.

Each spec field declares its value rule (`errors.ruled`), and `partition`
holds the spec to its rules with `errors.check_field_types`; the entry points
check each int and float argument's type and rule in one `errors.check_types`
call. Rules that relate a field to the pool or to n_clients (k_true <=
n_clients, classes_per_client <= the class count, the superclass_of map)
stay in the spec's one-attempt rule. `stream` checks the seeds, and each
entry point draws from a stream of its own purpose.

Pools and client splits hold their rows as `Samples` arrays: `partition` deals
pool row indices to clients, then takes each client's rows once.
"""

import csv
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (FINITE, FINITE_POSITIVE, NON_NEGATIVE, OPEN_UNIT, POSITIVE,
                     ConfigurationError, GenerationError, check_field_types, check_types,
                     has_type, ruled)
from .model import Samples
from .streams import stream

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
    alpha: float = ruled(FINITE_POSITIVE)

    def _rule(self, pool, n_clients):
        return _dirichlet_rule(self.alpha, np.arange(pool.class_count), pool, n_clients)


@dataclass(frozen=True)
class ScDir:
    alpha: float = ruled(FINITE_POSITIVE)
    superclass_of: tuple | None = None  # class -> superclass; default: 10 equal blocks

    def _rule(self, pool, n_clients):
        c = pool.class_count
        sc = ((np.arange(c) * min(10, c) // c).tolist() if self.superclass_of is None
              else self.superclass_of)
        if not isinstance(sc, (tuple, list, np.ndarray)) or len(sc) != c:
            raise ConfigurationError(f"superclass_of must map each of the {c} classes, "
                                     f"got {self.superclass_of!r}")
        # ids 0..S-1, each used: no superclass may hold Dirichlet mass but no class
        if not all(has_type(s, int) for s in sc) or set(sc) != set(range(len(set(sc)))):
            raise ConfigurationError("superclass ids in superclass_of must be the integers "
                                     f"0..S-1, each used at least once, got {self.superclass_of}")
        return _dirichlet_rule(self.alpha, np.array(sc), pool, n_clients)


@dataclass(frozen=True)
class Patho:
    classes_per_client: int = ruled(POSITIVE)

    def _rule(self, pool, n_clients):
        if self.classes_per_client > pool.class_count:
            raise ConfigurationError("classes_per_client exceeds the class count")
        return _label_subset_rule(pool, np.arange(n_clients), self.classes_per_client)


@dataclass(frozen=True)
class ClusterShift:
    k_true: int = ruled(POSITIVE)
    rotation_angle: float = ruled(FINITE)
    label_subset_size: int = ruled(POSITIVE)

    def _rule(self, pool, n_clients):
        if self.k_true > n_clients:
            raise ConfigurationError("k_true must be in [1, n_clients]")
        if pool.feature_dim < 2:
            raise ConfigurationError("feature rotation needs at least 2 dimensions")
        return _label_subset_rule(pool, np.arange(n_clients) % self.k_true,
                                  self.label_subset_size, self.rotation_angle)


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
    check_types(int, POSITIVE, class_count=class_count, feature_dim=feature_dim,
                per_class=per_class)
    check_types(float, NON_NEGATIVE, separation=separation)
    rng = stream(seed, "pool")
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


def _train_test_split(samples: Samples, rng: np.random.Generator,
                      true_cluster: int | None) -> ClientSplit:
    n = len(samples)
    order = rng.permutation(n)
    n_train = min(max(int(round(0.8 * n)), 1), n - 1)
    return ClientSplit(train=samples[order[:n_train]], test=samples[order[n_train:]],
                       true_cluster=true_cluster)


@dataclass
class _Draw:
    """One attempt's draw before dealing: owners[c] names the client of each
    row dealt from class c (None when class c is not dealt)."""

    owners: list
    priors: np.ndarray | None = None      # label prior per client (Dirichlet)
    truth: np.ndarray | None = None       # planted group per client
    rotations: list | None = None         # feature rotation per planted group


def _assemble(pool, draw: _Draw, n_clients, rng) -> FederationData | None:
    """Deal the drawn rows, rotate each planted group's features and split
    every client 80/20; None if some client got under _MIN_CLIENT_SAMPLES rows."""
    per_client = _deal(pool, draw.owners, n_clients, rng)
    if min(len(s) for s in per_client) < _MIN_CLIENT_SAMPLES:
        return None
    truth = [None] * n_clients if draw.truth is None else draw.truth.tolist()
    if draw.rotations is not None:
        # the stacked mat-vec rotates each row exactly as rot @ x alone
        per_client = [Samples((draw.rotations[g] @ s.x[:, :, None])[:, :, 0], s.y)
                      for g, s in zip(truth, per_client)]
    clients = [_train_test_split(s, rng, g) for s, g in zip(per_client, truth)]
    return FederationData(clients=clients, class_count=pool.class_count,
                          feature_dim=pool.feature_dim, label_priors=draw.priors)


def _dirichlet_rule(alpha, superclass_of, pool, n_clients):
    """Each client draws Dirichlet(alpha) superclass priors, spreads every
    superclass's mass evenly over its classes, and draws its n_each label
    counts from the result; an attempt that oversubscribes a class fails."""
    total = len(pool.samples)
    n_each = total // (2 * n_clients)
    if n_each < _MIN_CLIENT_SAMPLES:
        raise GenerationError(f"pool too small: {total} samples give {n_each} per client "
                              f"(< {_MIN_CLIENT_SAMPLES})")
    available = np.bincount(pool.samples.y, minlength=pool.class_count)
    size_of = np.bincount(superclass_of).astype(np.float64)

    def attempt(rng):
        sup = rng.dirichlet(np.full(len(size_of), alpha), size=n_clients)
        priors = sup[:, superclass_of] / size_of[superclass_of]
        counts = np.stack([rng.multinomial(n_each, p) for p in priors])
        if np.any(counts.sum(axis=0) > available):
            return None
        # every class is dealt, following the drawn label counts
        return _Draw([np.repeat(np.arange(n_clients), k) for k in counts.T], priors=priors)

    return attempt


def _plane_rotation(dim: int, angle: float, rng) -> np.ndarray:
    """Rotation by `angle` inside a random 2-plane of R^dim."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, 2)))
    u, v = q[:, 0], q[:, 1]
    return (np.eye(dim)
            + (math.cos(angle) - 1.0) * (np.outer(u, u) + np.outer(v, v))
            + math.sin(angle) * (np.outer(u, v) - np.outer(v, u)))


def _label_subset_rule(pool, group_of, subset_size, angle=None):
    """After one shuffle of the classes, group g holds the subset_size classes
    from position g * subset_size on (cyclically), and each class is split
    evenly among the clients whose group holds it. With an angle the groups
    are planted: each is its clients' true cluster and draws one plane
    rotation of their features."""
    c, n_groups = pool.class_count, int(group_of.max()) + 1
    positions = (np.arange(n_groups)[:, None] * subset_size + np.arange(subset_size)) % c
    sizes = np.bincount(pool.samples.y, minlength=c)

    def owners_of(order):
        held = np.zeros((n_groups, c), dtype=bool)
        held[np.arange(n_groups)[:, None], order[positions]] = True
        # class c is split among its holders as np.array_split does
        return [np.repeat(who, n // len(who) + (np.arange(len(who)) < n % len(who)))
                if len(who) else None
                for who, n in zip(map(np.flatnonzero, held[group_of].T), sizes)]

    if np.all(sizes == sizes[0]):
        # a client's row count then does not depend on the class order, so the
        # identity order fails the floor exactly when every attempt would
        dealt = np.concatenate([who for who in owners_of(np.arange(c)) if who is not None])
        fewest = np.bincount(dealt, minlength=len(group_of)).min()
        if fewest < _MIN_CLIENT_SAMPLES:
            raise GenerationError(f"label subsets give a client {fewest} samples, under the "
                                  f"floor of {_MIN_CLIENT_SAMPLES} per client")

    def attempt(rng):
        order = rng.permutation(c)
        rotations = (None if angle is None else
                     [_plane_rotation(pool.feature_dim, angle, rng) for _ in range(n_groups)])
        return _Draw(owners_of(order), truth=None if angle is None else group_of,
                     rotations=rotations)

    return attempt


def _first_success(seed: int, purpose: str, attempt, failure: str):
    """The one retry loop: the first result other than None of
    attempt(stream(seed, purpose, k), k) for k = 0, 1, ...; after
    _MAX_ATTEMPTS failed attempts, a GenerationError with the message
    `failure`."""
    for k in range(_MAX_ATTEMPTS):
        out = attempt(stream(seed, purpose, k), k)
        if out is not None:
            return out
    raise GenerationError(failure)


def partition(pool: LabeledPool, spec, n_clients: int, seed: int) -> FederationData:
    """Split the pool across clients according to the scheme: attempt k runs
    the scheme's one-attempt rule on stream(seed, "partition", k), and the
    first feasible federation is kept."""
    check_types(int, POSITIVE, n_clients=n_clients)
    if not isinstance(spec, (GlDir, ScDir, Patho, ClusterShift)):
        raise ConfigurationError(f"unknown partition spec {spec!r}")
    check_field_types(spec)
    rule = spec._rule(pool, n_clients)

    def attempt(rng, _):
        draw = rule(rng)
        return None if draw is None else _assemble(pool, draw, n_clients, rng)

    return _first_success(seed, "partition", attempt, (
        f"could not draw a feasible {type(spec).__name__} partition in {_MAX_ATTEMPTS} "
        f"attempts: a class was oversubscribed or a client got under "
        f"{_MIN_CLIENT_SAMPLES} samples"))


def split_unseen(data: FederationData, fraction: float, seed: int) -> FederationData:
    """Hold out ceil(fraction * N) clients, chosen uniformly at random.

    At least one client must participate. When ground-truth groups are
    present, a split that keeps fewer clients than groups fails before any
    draw, and a draw that would strip any group of all its participating
    clients is resampled (one warning per resampled attempt) by the retry
    loop partition uses, on stream(seed, "unseen_split", k). The kept
    clients keep their label_priors rows, in client order.
    """
    check_types(float, OPEN_UNIT, fraction=fraction)
    n = data.n_clients
    n_unseen = math.ceil(fraction * n)
    truth = data.true_clusters
    groups = set() if truth is None else set(truth.tolist())
    if n_unseen >= n:
        raise ConfigurationError(f"unseen fraction {fraction} holds out all {n} clients")
    if n - n_unseen < len(groups):
        raise GenerationError(f"unseen fraction {fraction} keeps {n - n_unseen} of {n} "
                              f"clients, fewer than the {len(groups)} true clusters")

    def attempt(rng, k):
        chosen = set(int(i) for i in rng.choice(n, size=n_unseen, replace=False))
        kept = [i for i in range(n) if i not in chosen]
        if groups and set(truth[kept].tolist()) != groups:
            logger.warning("unseen split attempt %d emptied a true cluster; resampling", k)
            return None
        priors = data.label_priors
        return replace(data, clients=[data.clients[i] for i in kept],
                       unseen=list(data.unseen) + [data.clients[i] for i in sorted(chosen)],
                       label_priors=None if priors is None else priors[kept])

    return _first_success(seed, "unseen_split", attempt, "could not split unseen clients "
                          "while keeping every true cluster represented")


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
    rng = stream(seed, "csv_split", len(ids))
    clients = []
    for cid in np.unique(ids):
        if np.count_nonzero(ids == cid) < 2:
            raise ConfigurationError(f"client {cid} has fewer than 2 samples")
        clients.append(_train_test_split(samples[ids == cid], rng, None))
    return FederationData(clients=clients, class_count=int(samples.y.max()) + 1,
                          feature_dim=d)
