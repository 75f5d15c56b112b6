"""Unseen-client pipeline: probe-basis extraction, cluster routing by mean
squared principal-angle cosine, and optional leaf fine-tuning.

A new client runs a few full-batch gradient steps on a fresh probe adapter on
top of the frozen root, takes the dominant left subspace of the probe's B
factor, and joins the cluster whose representative subspace it overlaps most.
It can then serve immediately through root + cluster, or refine a private
leaf adapter locally: each fine-tune epoch is one round of the leaf stage,
with that stage's optimiser and gammas (federation's _stage_settings), on
inputs built as the stage engine builds its own: one KernelInputs built
once from the client's path and the gammas (model._stack_inputs, which
checks them once), whose frozen weight is w0 + root + cluster and whose
penalty pair holds the root and cluster B factors (Tier.LEAF.earlier) with
a non-zero gamma, updated in place epoch by epoch and scored at frozen +
B A, the path's composed weight bitwise. In either batch mode the frozen
logits of the client's train rows are computed once and read by every
epoch's factored step, gathered with the rows in mini batch. The probe
builds its inputs the
same way, from a path of the frozen root, the fresh probe as its cluster
tier and a zero leaf, with no gammas, so it trains without a penalty; its
one full-batch call computes its frozen logits and step operands once, and
its basis is read off the stepped B. After each epoch the leaf stage's
round check runs (federation._check_round): an epoch whose factors go
non-finite, or so large that their product could overflow, is refused as a
diverged leaf round is, before it is scored.
"""

from dataclasses import dataclass

import numpy as np

from .datagen import ClientSplit
from .errors import NON_NEGATIVE, POSITIVE, ConfigurationError, DegenerateInputError, check_types
from .federation import FederationConfig, ServerState, _check_round, _stage_settings
from .linalg import Matrix, directed_bases, one_blas_thread, subspace_overlap
from .lora import AdapterPath, LoraAdapter, Tier, init_adapter, zero_adapter
from .metrics import accuracy
from .model import (ClientStack, EncodedData, HeadModel, Samples, SgdConfig, encode,
                    local_update, _frozen_logits, _stack_accuracy, _stack_inputs, _stack_of_one)
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
                root_star: LoraAdapter, rank: int, steps: int, lr: float, seed: int = 0) -> Matrix:
    """Run `steps` full-batch gradient steps of a fresh probe adapter above the
    frozen root on `train` and return the probe B's dominant left subspace;
    a probe B with no direction (linalg.directed_bases) is refused, and so,
    with ConfigurationError and no warning, is one that went non-finite."""
    check_types(int, POSITIVE, steps=steps)
    p, q = model.class_count, model.backbone.hidden_dim
    probe = init_adapter(p, q, rank, stream(seed, "probe_init"))
    path = AdapterPath(root=root_star, cluster=probe, leaf=zero_adapter(p, q, rank))
    local = _stack_inputs(model, [path], Tier.CLUSTER)   # no gammas: no penalty
    local_update(model, local, _stack_of_one(model, train),
                 opt=SgdConfig(lr=lr, epochs=steps, batch_mode="full"))
    basis, spans = directed_bases(local.b[0], rank)
    if not spans:
        raise DegenerateInputError("probe basis stayed numerically zero")
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
    # each split is packed once: the train split serves the probe and every
    # epoch, the test split is scored epochs + 1 times
    train, test = (ClientStack((encode(model, split),)) for split in (client.train, client.test))
    u_u = probe_basis(model, train, server.root, config.rank,
                      steps=config.probe_steps, lr=config.lr, seed=seed)
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
