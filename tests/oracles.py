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


def accuracy_oracle(z, y, w):
    """Share of rows whose largest logit in z @ w.T is the label; np.argmax
    takes the first, so ties pick the lowest class."""
    return float(np.mean(np.argmax(z @ w.T, axis=1) == y))


def orthogonality_oracle(root_b, cluster_bs, leaf_bs, rank, negligible):
    """Per tier pair, {mean, max, count, excluded} of ||U1.T @ U2||_F^2 / rank
    taken one client at a time, where U is the top-`rank` left singular basis
    of a B factor. cluster_bs and leaf_bs hold each client's factors; a factor
    of Frobenius norm <= negligible spans no direction, so each pair it is
    part of counts the client as excluded."""
    def basis(b):
        return None if np.linalg.norm(b) <= negligible else np.linalg.svd(b)[0][:, :rank]

    u_root = np.linalg.svd(root_b)[0][:, :rank]
    vals = {"root_cluster": [], "root_leaf": [], "cluster_leaf": []}
    excluded = dict.fromkeys(vals, 0)
    for cluster_b, leaf_b in zip(cluster_bs, leaf_bs):
        uc, ul = basis(cluster_b), basis(leaf_b)
        for name, (u1, u2) in (("root_cluster", (u_root, uc)), ("root_leaf", (u_root, ul)),
                               ("cluster_leaf", (uc, ul))):
            if u1 is None or u2 is None:
                excluded[name] += 1
            else:
                vals[name].append(float(np.sum((u1.T @ u2) ** 2)) / rank)
    return {name: {"mean": float(np.mean(v)) if v else None, "max": max(v) if v else None,
                   "count": len(v), "excluded": excluded[name]} for name, v in vals.items()}
