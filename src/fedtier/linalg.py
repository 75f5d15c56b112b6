"""Dense float64 linear algebra with a deterministic truncated SVD.

Matrices are plain 2-D ``numpy.ndarray`` of dtype float64. The SVD is
LAPACK's (``numpy.linalg.svd``) followed by a fixed sign convention, so
repeated calls on identical input return bitwise-identical factors on a
given machine and BLAS/LAPACK build. Principal-angle overlaps between
orthonormal bases come from :func:`subspace_overlap`, which takes one basis
or an (n, p, r) stack on each side and gives every pair's overlap from one
product: the one similarity rule behind client distances and cluster routing.
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


def _basis_stack(u, name: str) -> np.ndarray:
    """u (p×r or (n, p, r)) as an (n, p, r) stack, each u.T @ u checked to be I within 1e-8."""
    stack = np.asarray(u, dtype=np.float64)
    if stack.ndim not in (2, 3):
        raise PreconditionError(f"{name} must be p×r or an (n, p, r) stack, got {stack.shape}")
    stack = stack.reshape((-1,) + stack.shape[-2:])
    dev = stack.swapaxes(1, 2) @ stack - np.eye(stack.shape[2])
    err = np.sqrt((dev * dev).sum(axis=(1, 2)))
    if not err.max(initial=0.0) <= 1e-8:   # also catches NaN
        bad = int(np.argmin(err <= 1e-8))
        raise PreconditionError(f"{name} (entry {bad}) columns are not orthonormal "
                                f"(deviation {err[bad]:.3e})")
    return stack


def subspace_overlap(u1, u2):
    """Sum of squared principal-angle cosines between two column spaces.

    Equals ||u1.T @ u2||_F^2 for orthonormal inputs; lies in
    [0, min(r1, r2)], is symmetric, and is invariant under right-
    multiplication of either basis by an orthogonal matrix. Either side may
    be one p×r basis or an (n, p, r) stack: the result is (n1, n2), minus the
    axis of a one-basis side, so two bases give a float. Each basis is
    checked once, and one product gives every overlap, a symmetric one when
    both sides are the same stack.
    """
    same = u1 is u2
    s1 = _basis_stack(u1, "first basis")
    s2 = s1 if same else _basis_stack(u2, "second basis")
    (n1, p, r1), (n2, p2, r2) = s1.shape, s2.shape
    if p != p2:
        raise PreconditionError(f"bases must share a row count, got {s1.shape} and {s2.shape}")
    rows = s1.transpose(0, 2, 1).reshape(n1 * r1, p)
    cols = rows.T if same else s2.transpose(1, 0, 2).reshape(p, n2 * r2)
    cross = (rows @ cols).reshape(n1, r1, n2, r2)
    overlap = (cross * cross).sum(axis=(1, 3)).clip(max=min(r1, r2))
    overlap = overlap.reshape(np.shape(u1)[:-2] + np.shape(u2)[:-2])
    return overlap if overlap.ndim else float(overlap)
