"""Independent reference computations shared across test modules."""

import functools
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


def head_gradient_oracle(w, z, y):
    """Gradient of the mean softmax cross-entropy with respect to the head
    weight w (C×h), one row at a time: the sum over the rows of
    (softmax(w z) - onehot(y)) z^T, divided by the row count."""
    grad = np.zeros_like(w)
    for row, label in zip(z, y):
        logits = w @ row
        resid = np.exp(logits - logits.max())
        resid /= resid.sum()
        resid[label] -= 1.0
        grad += np.outer(resid, row)
    return grad / len(y)


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


def class_major_probs(w, z):
    """Softmax probabilities (S, K, C, block) of the rows in z (S, K, block,
    h) under each client's head weight w (S, C, h), computed slice by slice
    in class-major (S, K, C, block) memory: the kernel's earlier layout."""
    logits = w[:, None] @ z.swapaxes(-1, -2)
    logits -= logits.max(axis=-2, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-2, keepdims=True)
    return logits


def class_major_gradient(frozen_w, b, a, z, labels, rows):
    """dB, dA of the mean cross-entropy over the blocks in z (no penalties),
    from class_major_probs with the kernel's earlier formula: the one-hot
    taken off each (client, block) slice, the blocks' weight gradients
    summed in block order and divided by each client's real rows."""
    probs = class_major_probs(frozen_w + b @ a, z)
    slices, classes, block = probs.shape[0] * probs.shape[1], probs.shape[2], probs.shape[3]
    probs.reshape(slices, classes, block)[np.arange(slices)[:, None],
                                          labels.reshape(slices, block), np.arange(block)] -= 1.0
    dw = functools.reduce(np.add, (probs @ z).swapaxes(0, 1)) / rows[:, None, None]
    return dw @ a.swapaxes(-1, -2), b.swapaxes(-1, -2) @ dw


def class_major_factored_gradient(frozen_w, b, a, z, labels, rows):
    """dB, dA of the mean cross-entropy over the blocks in z (no penalties),
    in factored form, one (client, block) slice at a time in class-major
    (C, block) memory: logits = frozen_w z_k^T + B (A z_k^T), softmax over
    the classes and the one-hot taken off, then
    dB = sum_k resid_k (A z_k^T)^T and dA = sum_k (B^T resid_k) z_k, the
    blocks summed in block order and divided by each client's real rows.
    No C×h weight is formed."""
    db, da = [], []
    for fw, bs, as_, zs, ys, n in zip(frozen_w, b, a, z, labels, rows):
        parts = []
        for zk, yk in zip(zs, ys):
            azk = as_ @ zk.T
            resid = fw @ zk.T + bs @ azk
            resid -= resid.max(axis=0)
            np.exp(resid, out=resid)
            resid /= resid.sum(axis=0)
            resid[yk, np.arange(len(yk))] -= 1.0
            parts.append((resid @ azk.T, (bs.T @ resid) @ zk))
        db.append(functools.reduce(np.add, [p[0] for p in parts]) / n)
        da.append(functools.reduce(np.add, [p[1] for p in parts]) / n)
    return np.stack(db), np.stack(da)


def class_major_losses(w, z, labels, real):
    """Each client's mean of -log max(p_label, 1e-12) over the real rows,
    from class_major_probs: each block summed, then the blocks in order."""
    probs = class_major_probs(w, z)
    picked = np.take_along_axis(probs, labels[:, :, None], axis=-2)[:, :, 0]
    part = np.where(real, -np.log(np.maximum(picked, 1e-12)), 0.0).sum(axis=-1)
    return functools.reduce(np.add, part.swapaxes(0, 1)) / real.reshape(len(real), -1).sum(axis=1)


def sign_convention_loop(u, vt):
    """The SVD sign convention one (u column, vt row) pair at a time: flip
    the pair when the u column's first largest-magnitude entry (lowest row
    on ties) is negative; a stack's matrices are flipped one by one. Returns
    flipped copies."""
    u, vt = u.copy(), vt.copy()
    for uu, vv in zip(u.reshape((-1,) + u.shape[-2:]), vt.reshape((-1,) + vt.shape[-2:])):
        for j in range(uu.shape[1]):
            idx = int(np.argmax(np.abs(uu[:, j])))
            if uu[idx, j] < 0.0:
                uu[:, j] = -uu[:, j]
                vv[j, :] = -vv[j, :]
    return u, vt


def relabel_loop(labels):
    """Labels renamed 0, 1, ... in order of first appearance, one entry at a
    time, in the input's dtype."""
    mapping = {}
    out = np.zeros_like(labels)
    for i, lab in enumerate(labels.tolist()):
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


def lloyd_loop(points, centers, max_iter=300, tol=1e-10):
    """Lloyd's k-means one center at a time: each iteration labels every
    point by its nearest center (lowest index on ties), then moves each
    center with members to their mean; an empty cluster keeps its center.
    Stops when no center moved more than tol or after max_iter iterations,
    and returns the final labels and the summed squared distances."""
    for _ in range(max_iter):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        moved = 0.0
        new_centers = centers.copy()
        for c in range(centers.shape[0]):
            members = points[labels == c]
            if len(members) == 0:
                continue
            new_centers[c] = members.mean(axis=0)
            moved = max(moved, float(np.max(np.abs(new_centers[c] - centers[c]))))
        centers = new_centers
        if moved <= tol:
            break
    d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, float(np.sum(d2[np.arange(points.shape[0]), labels]))
