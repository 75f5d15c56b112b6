"""Unseen-client pipeline: routing-basis extraction, cluster routing by mean
squared principal-angle cosine, and optional leaf fine-tuning.

A new client takes the dominant left singular subspace of its head gradient
dW, the gradient of its mean train cross-entropy with respect to the head
weight at w0 + root, and joins the cluster whose representative subspace it
overlaps most. dW is the blocked kernel's own gradient
(model._stack_gradient) at B = I and A = 0, whose dA is then dW exactly.
The client can then serve immediately through root + cluster, or refine a
private leaf adapter locally: each fine-tune epoch is one round of the leaf stage,
with that stage's optimiser and gammas (federation's _stage_settings), on
inputs built as the stage engine builds its own: one KernelInputs built
once from the client's path and the gammas (model._stack_inputs, which
checks them once), whose frozen weight is w0 + root + cluster and whose
penalty pair holds the root and cluster B factors (Tier.LEAF.earlier) with
a non-zero gamma, updated in place epoch by epoch and scored at frozen +
B A, the path's composed weight bitwise. In either batch mode the frozen
logits of the client's train rows are computed once and read by every
epoch's factored step, gathered with the rows in mini batch. After each
epoch the leaf stage's round check runs (federation._check_round): an epoch
whose factors go non-finite, or so large that their product could
overflow, is refused as a diverged leaf round is, before it is scored.
"""

from dataclasses import dataclass

import numpy as np

from .datagen import ClientSplit
from .errors import NON_NEGATIVE, ConfigurationError, DegenerateInputError, check_types
from .federation import FederationConfig, ServerState, _check_round, _stage_settings
from .linalg import Matrix, directed_bases, one_blas_thread, subspace_overlap
from .lora import AdapterPath, LoraAdapter, Tier, delta, init_adapter
from .metrics import accuracy
from .model import (ClientStack, EncodedData, HeadModel, Samples, encode, local_update,
                    _DEFAULT_BATCH, _frozen_logits, _label_index, _stack_accuracy,
                    _stack_gradient, _stack_inputs, _stack_of_one)
from .streams import stream


@dataclass
class ClusterRepresentative:
    """Orthonormal basis of one cluster's frozen B factor."""

    index: int
    basis: Matrix


def build_representatives(server: ServerState, rank: int) -> list[ClusterRepresentative]:
    """Top-r left singular bases of the frozen cluster adapters, by index:
    one linalg.directed_bases call (one stacked SVD and one stacked norm)
    over the B factors in ascending cluster order, each basis bitwise its own
    call's.

    A cluster adapter whose B spans no direction (norm at most
    linalg.NO_DIRECTION, as after a run with t_cluster = 0) gives no
    subspace to route by, so it is rejected; the error names the lowest such
    cluster."""
    if server.root is None or not server.clusters:
        raise ConfigurationError("server is not fully trained")
    ids = sorted(server.clusters)
    bases, spans = directed_bases(np.stack([server.clusters[j].b for j in ids]), rank)
    if not spans.all():
        raise DegenerateInputError(f"cluster {ids[np.argmin(spans)]} adapter is numerically "
                                   f"zero; unseen clients cannot be routed")
    return [ClusterRepresentative(index=j, basis=u) for j, u in zip(ids, bases)]


def probe_basis(model: HeadModel, train: Samples | EncodedData | ClientStack,
                root_star: LoraAdapter, rank: int) -> Matrix:
    """The top-`rank` left singular subspace of dW, the gradient of the mean
    cross-entropy on `train` with respect to the head weight at w0 + root;
    a gradient with no direction (linalg.directed_bases), as from a dead
    backbone, is refused."""
    stack = _stack_of_one(model, train)
    z, labels, _ = stack.layout(_DEFAULT_BATCH)
    c, h = model.w0.shape
    # the kernel's gradient at B = I, A = 0 and no penalty: the logits are the
    # frozen ones, and dA = resid z / n is dW; padding rows add exact zeros
    _, dw = _stack_gradient(_frozen_logits((model.w0 + delta(root_star))[None], z),
                            np.eye(c)[None], np.zeros((1, c, h)), z, _label_index(labels).ravel(),
                            stack.sizes[:, None, None], np.empty((1, c, 0)), np.empty((1, 0, c)))
    basis, spans = directed_bases(dw[0], rank)
    if not spans:
        raise DegenerateInputError("routing gradient is numerically zero")
    return basis


def assign_cluster(u_u: Matrix, reps: list[ClusterRepresentative]) -> int:
    """Index of the representative with the largest mean squared principal-
    angle cosine; ties resolve to the lowest cluster index."""
    if not reps:
        raise ConfigurationError("no cluster representatives given")
    reps = sorted(reps, key=lambda rep: rep.index)
    bases = np.stack([rep.basis for rep in reps])
    scores = subspace_overlap(u_u, bases) / bases.shape[2]
    return reps[int(np.argmax(scores))].index


@dataclass
class AdaptationResult:
    assigned_cluster: int
    path: AdapterPath
    accuracy_trajectory: list[float]  # length epochs + 1, entry 0 = root+cluster


@one_blas_thread()
def adapt_unseen(model: HeadModel, client: ClientSplit, server: ServerState,
                 config: FederationConfig, epochs: int, seed: int = 0) -> AdaptationResult:
    """Route an unseen client, then fine-tune a fresh leaf for `epochs` local
    epochs, recording test accuracy after each epoch (entry 0 is the
    root+cluster model before any local work). BLAS runs on one thread
    (linalg.one_blas_thread)."""
    check_types(int, NON_NEGATIVE, epochs=epochs)
    reps = build_representatives(server, config.rank)
    # each split is packed once: the train split serves the routing basis and
    # every epoch, the test split is scored epochs + 1 times
    train, test = (ClientStack((encode(model, split),)) for split in (client.train, client.test))
    u_u = probe_basis(model, train, server.root, config.rank)
    j = assign_cluster(u_u, reps)
    leaf = init_adapter(*model.w0.shape, config.rank, stream(seed, "unseen_leaf_init"))
    path = AdapterPath(root=server.root, cluster=server.clusters[j], leaf=leaf)
    # the fresh leaf has b = 0, so this is exactly the root+cluster model
    trajectory = [accuracy(model, path, test)]
    _, opt, gammas = _stage_settings(config, Tier.LEAF, len(client.train))
    # frozen: w0 + root + cluster; penalty pair: the root and cluster B factors
    local = _stack_inputs(model, [path], Tier.LEAF, gammas)
    # only mini batch reads row orders, so only it draws a shuffle stream;
    # the frozen logits are the same in every epoch
    shuffle = [stream(seed, "unseen_leaf_shuffle") if opt.batch_mode == "mini" else None]
    logits = _frozen_logits(local.frozen, train.layout(opt.batch_size)[0])
    # frozen + B A adds w0, root, cluster, leaf in compose_path's order
    for epoch in range(1, epochs + 1):
        local_update(model, local, train, opt=opt, rng=shuffle, frozen_logits=logits)
        _check_round(config, Tier.LEAF, epoch, local)   # refused as a diverged leaf round is
        trajectory.append(float(_stack_accuracy(local.frozen + local.b @ local.a, test)[0]))
    leaf = LoraAdapter(b=local.b[0], a=local.a[0], rank=config.rank)
    return AdaptationResult(assigned_cluster=j, path=path.replace(Tier.LEAF, leaf),
                            accuracy_trajectory=trajectory)
