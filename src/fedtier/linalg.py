"""Dense float64 linear algebra with a deterministic truncated SVD.

Matrices are plain 2-D ``numpy.ndarray`` of dtype float64. The SVD is
LAPACK's (``numpy.linalg.svd``) followed by a fixed sign convention, so
repeated calls on identical input return bitwise-identical factors on a
given machine and BLAS/LAPACK build. Principal-angle overlaps between
orthonormal bases come from :func:`subspace_overlap`, which takes one basis
or an (n, p, r) stack on each side and gives every pair's overlap from one
product: the one similarity rule behind client distances and cluster routing.
:func:`one_blas_thread` runs its body with numpy's bundled OpenBLAS on one
thread: the problems here are small, and OpenBLAS's threads cost more than
they save on them.
"""

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PreconditionError, check_types

Matrix = np.ndarray

# a factor of Frobenius norm at most this spans no direction: it gives no
# subspace to route by, and no overlap to report
NO_DIRECTION = 1e-6


def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    wheel bundles, or None when numpy links another BLAS (MKL, Accelerate)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_OPENBLAS = _openblas()
# OpenBLAS has one thread count per process, shared by every thread, so pins
# are counted: the first to open saves the count, the last to close restores it
_PIN_LOCK = threading.Lock()
_pins = {"open": 0, "saved": None}


@contextmanager
def one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread and give the
    caller's count back on exit, also when the body raises. Nests, is safe
    across threads, and does nothing without that OpenBLAS. Usable as a
    decorator, so the decorated function stays the one object every module
    binds."""
    with _PIN_LOCK:
        if _pins["open"] == 0 and _OPENBLAS is not None:
            _pins["saved"] = _OPENBLAS[0]()
            _OPENBLAS[1](1)
        _pins["open"] += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pins["open"] -= 1
            if _pins["open"] == 0 and _OPENBLAS is not None:
                _OPENBLAS[1](_pins["saved"])


def as_matrix(m, stacked: bool = False) -> Matrix:
    """Coerce to a finite 2-D float64 array, or with `stacked` also to an
    (n, p, q) stack of them, raising on anything else."""
    out = np.asarray(m, dtype=np.float64)
    if out.ndim != 2 and not (stacked and out.ndim == 3):
        raise ConfigurationError(f"expected a matrix{' or stack' * stacked}, got ndim={out.ndim}")
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


def frobenius_norm(m: Matrix):
    """sqrt of the sum of squared entries; 0 exactly iff m is the zero matrix.
    An (n, p, q) stack gives the (n,) norms of its matrices, bitwise each
    one's when the stack is C-ordered."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 3:
        return float(np.sqrt(np.sum(m * m)))
    return np.sqrt((m * m).reshape(len(m), -1).sum(axis=1))


@dataclass(frozen=True)
class SvdFactors:
    """Top-k singular triplets: u (p×k, orthonormal columns), non-increasing
    singular values (k,), vt (k×q, orthonormal rows); each with a leading
    (n,) axis for a stack."""

    u: Matrix
    singular_values: np.ndarray
    vt: Matrix

    def reconstruct(self) -> Matrix:
        return self.u @ (self.singular_values[..., None] * self.vt)


def _apply_sign_convention(u: Matrix, vt: Matrix):
    """Flip each (u column, vt row) pair so the largest-magnitude entry of the
    left vector is positive; magnitude ties break at the lowest row index.
    Stacks flip each matrix's pairs on their own. One array expression over
    every pair; returns new C-ordered factors."""
    top = np.take_along_axis(u, np.argmax(np.abs(u), axis=-2)[..., None, :], axis=-2)
    flip = top < 0.0
    return np.where(flip, -u, u), np.where(flip.swapaxes(-1, -2), -vt, vt)


def truncated_svd(m: Matrix, k: int) -> SvdFactors:
    """Top-k singular triplets of m via LAPACK's thin SVD.

    The reconstruction u @ diag(s) @ vt is a best rank-k approximation of m.
    An (n, p, q) stack gives stacked factors, each matrix's bitwise equal to
    its own call's. Output is bitwise deterministic for identical input on a
    given machine and BLAS/LAPACK build; non-finite input and a rank that is
    not an integer in [1, min(p, q)] are refused.
    """
    check_types(int, k=k)
    m = as_matrix(m, stacked=True)
    p, q = m.shape[-2:]
    if not 1 <= k <= min(p, q):
        raise ConfigurationError(f"rank k={k} out of range for a {p}x{q} matrix")
    u, sigma, vt = np.linalg.svd(m, full_matrices=False)
    u, vt = _apply_sign_convention(u[..., :k], vt[..., :k, :])
    return SvdFactors(u=u, singular_values=sigma[..., :k].copy(), vt=vt)


def orthonormal_columns(m: Matrix, r: int) -> Matrix:
    """p×r orthonormal basis of the dominant r-dimensional left subspace of m."""
    return truncated_svd(m, r).u


def directed_bases(m: Matrix, r: int):
    """(bases, spans): orthonormal_columns(m, r) and whether each factor spans
    a direction, its Frobenius norm above NO_DIRECTION; one stacked SVD and
    one stacked norm for an (n, p, q) stack, giving (n, p, r) bases and an
    (n,) mask, or one basis and a bool for a matrix. The one rule for a
    factor with no direction: routing refuses it, the orthogonality report
    leaves it out."""
    return orthonormal_columns(m, r), frobenius_norm(m) > NO_DIRECTION


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
