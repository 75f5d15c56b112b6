"""Client clustering in the low-rank-update subspace.

Per-client adapter bases are Frobenius-normalized and smoothed across rounds
with an exponential moving average. Pairwise distances come from principal
angles between the dominant left subspaces (d = 1 - mean squared cosine),
every overlap from one linalg.subspace_overlap call on the stacked bases; a
Gaussian kernel with the median off-diagonal distance turns distances into
affinities, and a normalized-Laplacian spectral step with deterministic
seeded k-means produces the grouping. The cluster count is picked by the
eigengap of the Laplacian spectrum over a configurable range.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (OPEN_UNIT, ConfigurationError, DegenerateInputError, PreconditionError,
                     check_field_types, check_types, ruled)
from .linalg import (Matrix, frobenius_norm, one_blas_thread, orthonormal_columns,
                     subspace_overlap)
from .streams import stream

_DEGENERATE_NORM = 1e-300
_NOISE = 1e-12  # rounding noise: tied eigengaps, or the bandwidth of identical bases
_KMEANS_RESTARTS = 20
_KMEANS_TOL = 1e-10
_KMEANS_MAX_ITER = 300


@dataclass
class BasisTracker:
    """EMA-smoothed, unit-Frobenius-norm adapter basis per client."""

    decay: float = ruled(OPEN_UNIT)
    bases: dict[int, Matrix] = field(default_factory=dict)

    def __post_init__(self):
        check_field_types(self)


def ema_update(tracker: BasisTracker, client, b_new: Matrix) -> BasisTracker:
    """Fold a freshly trained basis into the client's smoothed basis.

    The first observation seeds the average directly; afterwards
    mixed = decay * old + (1 - decay) * normalized(new), renormalized.
    A sequence of distinct client ids with an (n, p, r) C-ordered stack of
    their bases folds every one in with stacked operations, bitwise as one
    call per client in order; a degenerate basis raises, naming the first such
    client, before any basis is stored.
    """
    stacked = np.ndim(client) == 1
    ids = list(client) if stacked else [client]
    b_new = np.asarray(b_new, dtype=np.float64)
    if stacked and (b_new.ndim != 3 or len(b_new) != len(ids) or len(set(ids)) != len(ids)):
        raise ConfigurationError(f"a stacked update needs one basis per distinct client: got "
                                 f"{len(ids)} ids ({len(set(ids))} distinct) and a stack of "
                                 f"shape {b_new.shape}")
    # one matrix takes its own norm, so its bits do not depend on its memory order
    norm = frobenius_norm(b_new) if stacked else np.array([frobenius_norm(b_new)])
    bad = np.flatnonzero(norm <= _DEGENERATE_NORM)
    if bad.size:
        raise DegenerateInputError(f"client {ids[bad[0]]} basis has zero norm")
    bhat = (b_new if stacked else b_new[None]) / norm[:, None, None]
    seen = [i for i, c in enumerate(ids) if c in tracker.bases]
    if seen:
        mixed = tracker.decay * np.stack([tracker.bases[ids[i]] for i in seen]) + (
            1.0 - tracker.decay) * bhat[seen]
        mnorm = frobenius_norm(mixed)
        bad = np.flatnonzero(mnorm <= _DEGENERATE_NORM)
        if bad.size:
            raise DegenerateInputError(f"client {ids[seen[bad[0]]]} EMA collapsed to zero")
        bhat[seen] = mixed / mnorm[:, None, None]
    tracker.bases.update(zip(ids, bhat))
    return tracker


def pairwise_distance(u_i: Matrix, u_j: Matrix, r: int) -> float:
    """Principal-angle distance 1 - (1/r) * sum of squared cosines, in [0, 1]."""
    if np.shape(u_i)[1:] != (r,) or np.shape(u_j)[1:] != (r,):
        raise PreconditionError(f"bases must be matrices of exactly r={r} columns")
    return min(max(1.0 - subspace_overlap(u_i, u_j) / r, 0.0), 1.0)


def distance_matrix(bases: list[list[Matrix]]) -> Matrix:
    """Symmetric zero-diagonal client-distance matrix, averaged over layers.

    `bases[i]` lists client i's per-layer orthonormal bases; every client must
    expose the same layer count and per-layer shape. A layer's distances are
    clip(1 - subspace_overlap(U, U) / r, 0, 1) on the (N, p, r) stack U of
    its bases: one orthonormality check per basis and one product per layer.
    """
    n = len(bases)
    if n == 0:
        raise ConfigurationError("no client bases given")
    layers = len(bases[0])
    if layers == 0 or any(len(b) != layers for b in bases):
        raise ConfigurationError("clients disagree on the layer count")
    total = np.zeros((n, n))
    for layer in range(layers):
        shapes = {np.shape(b[layer]) for b in bases}
        if len(shapes) != 1:
            raise ConfigurationError(f"layer {layer} bases disagree on shape: {shapes}")
        u = np.stack([np.asarray(b[layer], dtype=np.float64) for b in bases])
        if u.ndim != 3:
            raise PreconditionError("bases must be 2-D matrices")
        total += np.clip(1.0 - subspace_overlap(u, u) / u.shape[2], 0.0, 1.0)
    d = np.triu(total / layers, 1)
    return d + d.T


def median_offdiag_distance(d: Matrix) -> float:
    """Median of all off-diagonal entries (the Gaussian kernel bandwidth)."""
    n = d.shape[0]
    if n < 2:
        raise PreconditionError("at least two clients are needed")
    mask = ~np.eye(n, dtype=bool)
    return float(np.median(d[mask]))


def affinity(d: Matrix, sigma: float | None = None) -> Matrix:
    """Gaussian-kernel affinity with unit diagonal and bandwidth sigma (the
    median off-diagonal distance by default).

    A bandwidth within _NOISE of zero (all clients share a subspace) falls back
    to the all-ones matrix; callers flag that case in the assignment diagnostics.
    """
    sigma = median_offdiag_distance(d) if sigma is None else sigma
    if sigma <= _NOISE:
        return np.ones_like(d)
    s = np.exp(-(d * d) / (2.0 * sigma * sigma))
    np.fill_diagonal(s, 1.0)
    return s


def laplacian_sym(s: Matrix) -> Matrix:
    """Symmetric normalized Laplacian I - D^{-1/2} S D^{-1/2}."""
    deg = s.sum(axis=1)
    if np.any(deg <= 0):
        raise PreconditionError("affinity rows must have positive sums")
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = np.eye(s.shape[0]) - inv_sqrt[:, None] * s * inv_sqrt[None, :]
    return (lap + lap.T) / 2.0


def _farthest_point_init(points: Matrix, k: int, rng: np.random.Generator) -> Matrix:
    n = points.shape[0]
    first = int(rng.integers(n))
    centers = [points[first]]
    dist = np.sum((points - centers[0]) ** 2, axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(dist))
        centers.append(points[nxt])
        dist = np.minimum(dist, np.sum((points - centers[-1]) ** 2, axis=1))
    return np.stack(centers)


def _lloyd(points: Matrix, centers: Matrix):
    """Lloyd iterations from `centers`: (labels, objective). Each update
    moves every center that has members to their mean, from one bincount
    and one np.add.at over the points in order; a center with no members
    keeps its place, the one rule for an empty cluster."""
    for _ in range(_KMEANS_MAX_ITER):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        counts = np.bincount(labels, minlength=len(centers))[:, None]
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, points)
        new_centers = np.where(counts > 0, sums / np.maximum(counts, 1), centers)
        moved = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if moved <= _KMEANS_TOL:
            break
    d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1), float(np.sum(np.min(d2, axis=1)))


def _kmeans(points: Matrix, k: int, seed: int) -> np.ndarray:
    """Seeded farthest-point k-means; best objective over fixed restarts."""
    best_labels, best_obj = None, np.inf
    for restart in range(_KMEANS_RESTARTS):
        centers = _farthest_point_init(points, k, stream(seed, "kmeans", restart))
        labels, obj = _lloyd(points, centers)
        if obj < best_obj:
            best_labels, best_obj = labels, obj
    return best_labels


def spectral_cluster(s: Matrix, k: int, seed: int = 0) -> np.ndarray:
    """Normalized-Laplacian spectral clustering into k groups.

    Rows of the k bottom eigenvectors are row-normalized and clustered with
    the deterministic seeded k-means above.
    """
    n = s.shape[0]
    if k < 2:
        raise ConfigurationError("spectral clustering needs k >= 2")
    if k > n:
        raise ConfigurationError(f"k={k} exceeds the client count {n}")
    lap = laplacian_sym(s)
    _, vecs = np.linalg.eigh(lap)
    emb = vecs[:, :k].copy()
    norms = np.sqrt(np.sum(emb * emb, axis=1))
    nonzero = norms > _DEGENERATE_NORM
    emb[nonzero] /= norms[nonzero, None]
    return _kmeans(emb, k, seed)


def select_k(s: Matrix, k_min: int, k_max: int):
    """Eigengap selection: K maximizing lambda_{K+1} - lambda_K of the
    normalized Laplacian over [k_min, k_max]; ties pick the smallest K.

    Gaps within _NOISE of the maximum count as tied, so eigensolver noise
    cannot defeat the smallest-K rule on exactly degenerate spectra.
    """
    n = s.shape[0]
    if not 2 <= k_min <= k_max <= n - 1:
        raise ConfigurationError(
            f"selection range [{k_min}, {k_max}] invalid for {n} clients")
    evals = np.linalg.eigvalsh(laplacian_sym(s))
    gaps = np.array([evals[k] - evals[k - 1] for k in range(k_min, k_max + 1)])
    k_star = k_min + int(np.argmax(gaps >= gaps.max() - _NOISE))
    return k_star, gaps


@dataclass
class ClusterAssignment:
    """Selected cluster count, client labels, and pipeline diagnostics."""

    k_star: int
    labels: np.ndarray
    eigengaps: np.ndarray
    k_range: tuple[int, int]
    sigma: float
    eigenvalues: np.ndarray
    distances: Matrix
    affinities: Matrix
    degenerate: bool

    def members(self, j: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.labels == j)]

    @property
    def cluster_ids(self) -> list[int]:
        return sorted(int(j) for j in set(self.labels.tolist()))


def _relabel_by_first_appearance(labels: np.ndarray) -> np.ndarray:
    """Labels renamed 0, 1, ... in the order each first appears, in the
    input's dtype: each distinct label's new name is the rank of its first
    index."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse].astype(labels.dtype)


@one_blas_thread()
def cluster_clients(tracker: BasisTracker, k_min: int = 2, k_max: int = 10,
                    seed: int = 0, expected_clients: int | None = None) -> ClusterAssignment:
    """Run the full pipeline on the tracker's smoothed bases.

    The bases, which must share one shape, are stacked in client order and
    reduced to their dominant left subspaces by one stacked SVD (each basis
    bitwise its own call's), pairwise distances and affinities are formed,
    the eigengap picks K over [max(2, k_min), min(k_max, n - 1)], and
    spectral clustering produces the labels. Fewer
    than three clients cannot support eigengap selection and fall back to a
    single flagged cluster with all-ones affinities. BLAS runs on one thread
    (linalg.one_blas_thread), also when cluster-diag calls it alone.
    """
    check_types(int, k_min=k_min, k_max=k_max)
    clients = sorted(tracker.bases)
    if expected_clients is not None and len(clients) != expected_clients:
        raise ConfigurationError(
            f"tracker has {len(clients)} bases but {expected_clients} clients participate")
    n = len(clients)
    if n == 0:
        raise ConfigurationError("tracker holds no client bases")
    if n < 3:
        return ClusterAssignment(
            k_star=1, labels=np.zeros(n, dtype=np.int64),
            eigengaps=np.array([]), k_range=(1, 1), sigma=0.0,
            eigenvalues=np.zeros(n), distances=np.zeros((n, n)), affinities=np.ones((n, n)),
            degenerate=True)
    shapes = {np.shape(b) for b in tracker.bases.values()}
    if len(shapes) != 1:
        raise ConfigurationError(f"client bases disagree on shape: {sorted(shapes)}")
    bases = np.stack([tracker.bases[i] for i in clients])
    d = distance_matrix([[u] for u in orthonormal_columns(bases, bases.shape[2])])
    sigma = median_offdiag_distance(d)
    s = affinity(d, sigma)
    lo = max(2, k_min)
    hi = min(k_max, n - 1)
    if hi < lo:
        raise ConfigurationError(f"empty selection range [{lo}, {hi}]")
    k_star, gaps = select_k(s, lo, hi)
    if sigma <= _NOISE:
        # all clients share a subspace; the embedding carries no information,
        # so every client lands in one flagged cluster
        labels = np.zeros(n, dtype=np.int64)
    else:
        labels = _relabel_by_first_appearance(spectral_cluster(s, k_star, seed))
    evals = np.linalg.eigvalsh(laplacian_sym(s))
    return ClusterAssignment(k_star=k_star, labels=labels, eigengaps=gaps,
                             k_range=(lo, hi), sigma=sigma, eigenvalues=evals,
                             distances=d, affinities=s, degenerate=sigma <= _NOISE)
