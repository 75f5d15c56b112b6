"""Dense float64 linear algebra with a deterministic truncated SVD.

Matrices are plain 2-D ``numpy.ndarray`` of dtype float64. The SVD is
LAPACK's (``numpy.linalg.svd``) followed by a fixed sign convention, so
repeated calls on identical input return bitwise-identical factors on a
given machine and BLAS/LAPACK build. Principal-angle overlaps between
orthonormal bases are exposed via :func:`subspace_overlap`, the building
block for subspace distances.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PreconditionError

Matrix = np.ndarray


def as_matrix(m) -> Matrix:
    """Coerce to a finite 2-D float64 array, raising on anything else."""
    out = np.asarray(m, dtype=np.float64)
    if out.ndim != 2:
        raise ConfigurationError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise ConfigurationError("matrix contains non-finite entries")
    return out


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Dense product a @ b with an explicit inner-dimension check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ConfigurationError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def frobenius_norm(m: Matrix) -> float:
    """sqrt of the sum of squared entries; 0 exactly iff m is the zero matrix."""
    m = np.asarray(m, dtype=np.float64)
    return float(np.sqrt(np.sum(m * m)))


@dataclass(frozen=True)
class SvdFactors:
    """Top-k singular triplets: u (p×k, orthonormal columns), non-increasing
    singular values (k,), vt (k×q, orthonormal rows)."""

    u: Matrix
    singular_values: np.ndarray
    vt: Matrix

    def reconstruct(self) -> Matrix:
        return self.u @ (self.singular_values[:, None] * self.vt)


def _apply_sign_convention(u: Matrix, vt: Matrix):
    """Flip each (u column, vt row) pair so the largest-magnitude entry of the
    left vector is positive; magnitude ties break at the lowest row index."""
    for j in range(u.shape[1]):
        idx = int(np.argmax(np.abs(u[:, j])))
        if u[idx, j] < 0.0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]
    return u, vt


def truncated_svd(m: Matrix, k: int) -> SvdFactors:
    """Top-k singular triplets of m via LAPACK's thin SVD.

    The reconstruction u @ diag(s) @ vt is a best rank-k approximation of m.
    Output is bitwise deterministic for identical input on a given machine
    and BLAS/LAPACK build.
    """
    m = as_matrix(m)
    p, q = m.shape
    if not 1 <= k <= min(p, q):
        raise ConfigurationError(f"rank k={k} out of range for a {p}x{q} matrix")
    u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    u, vt = _apply_sign_convention(u[:, :k].copy(), vt[:k, :].copy())
    return SvdFactors(u=u, singular_values=sigma[:k].copy(), vt=vt)


def orthonormal_columns(m: Matrix, r: int) -> Matrix:
    """p×r orthonormal basis of the dominant r-dimensional left subspace of m."""
    return truncated_svd(m, r).u


def check_orthonormal_columns(u: Matrix, tol: float = 1e-8, name: str = "basis"):
    """Raise PreconditionError unless u.T @ u is the identity within tol."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise PreconditionError(f"{name} must be a 2-D matrix")
    gram = u.T @ u
    err = frobenius_norm(gram - np.eye(u.shape[1]))
    if err > tol:
        raise PreconditionError(f"{name} columns are not orthonormal (deviation {err:.3e})")


def subspace_overlap(u1: Matrix, u2: Matrix) -> float:
    """Sum of squared principal-angle cosines between two column spaces.

    Equals ||u1.T @ u2||_F^2 for orthonormal inputs; lies in
    [0, min(r1, r2)], is symmetric, and is invariant under right-
    multiplication of either basis by an orthogonal matrix.
    """
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    if u1.ndim != 2 or u2.ndim != 2 or u1.shape[0] != u2.shape[0]:
        raise PreconditionError(f"bases must share a row count, got {u1.shape} and {u2.shape}")
    check_orthonormal_columns(u1, name="first basis")
    check_orthonormal_columns(u2, name="second basis")
    cross = u1.T @ u2
    overlap = float(np.sum(cross * cross))
    return min(overlap, float(min(u1.shape[1], u2.shape[1])))
