"""Independent reference computations shared across test modules."""

import math

import numpy as np


def loop_matmul(a, b):
    """Naive triple-loop product."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            s = 0.0
            for k in range(a.shape[1]):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def eigh_singular_values(m):
    """Singular values (descending) from an eigen-decomposition of m.T @ m."""
    evals = np.linalg.eigvalsh(m.T @ m)
    return np.sqrt(np.maximum(evals[::-1], 0.0))


def best_rank_k(m, k):
    """Best rank-k approximation via the eigen route (independent of the
    package's LAPACK SVD path)."""
    evals, vecs = np.linalg.eigh(m.T @ m)
    order = np.argsort(evals)[::-1]
    out = np.zeros_like(m)
    for idx in order[:k]:
        s = math.sqrt(max(evals[idx], 0.0))
        if s == 0.0:
            continue
        v = vecs[:, idx]
        out += np.outer(m @ v, v)
    return out


def random_orthonormal(p, r, rng):
    q, _ = np.linalg.qr(rng.normal(size=(p, r)))
    return q[:, :r]


def softmax_loss_oracle(logits_rows, labels, floor=1e-12):
    """Per-sample softmax cross-entropy computed the pedestrian way."""
    total = 0.0
    for row, y in zip(logits_rows, labels):
        exps = [math.exp(v - max(row)) for v in row]
        p = exps[y] / sum(exps)
        total += -math.log(max(p, floor))
    return total / len(labels)
