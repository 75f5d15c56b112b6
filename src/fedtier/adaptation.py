"""Unseen-client pipeline: probe-basis extraction, cluster routing by mean
squared principal-angle cosine, and optional leaf fine-tuning.

A new client runs a few full-batch gradient steps on a fresh probe adapter on
top of the frozen root, takes the dominant left subspace of the probe's B
factor, and joins the cluster whose representative subspace it overlaps most.
It can then serve immediately through root + cluster, or refine a private
leaf adapter locally: each fine-tune epoch is one round of the leaf stage,
with that stage's optimiser, gammas and penalty bases (federation's
_stage_settings and Tier.LEAF.earlier).
"""

from dataclasses import dataclass

import numpy as np

from .datagen import ClientSplit
from .errors import ConfigurationError, DegenerateInputError, check_types
from .federation import FederationConfig, ServerState, _stage_settings
from .linalg import Matrix, frobenius_norm, one_blas_thread, orthonormal_columns, subspace_overlap
from .lora import AdapterPath, LoraAdapter, Tier, init_adapter, zero_adapter
from .metrics import accuracy
from .model import EncodedData, HeadModel, Samples, SgdConfig, encode, local_update
from .streams import stream

_ZERO_B = 1e-12  # a B factor this small spans no direction


@dataclass
class ClusterRepresentative:
    """Orthonormal basis of one cluster's frozen B factor."""

    index: int
    basis: Matrix


def build_representatives(server: ServerState, rank: int) -> list[ClusterRepresentative]:
    """Top-r left singular bases of the frozen cluster adapters, by index.

    A cluster adapter whose B is numerically zero (as after a run with
    t_cluster = 0) spans no subspace to route by, so it is rejected."""
    if server.root is None or not server.clusters:
        raise ConfigurationError("server is not fully trained")
    reps = []
    for j in sorted(server.clusters):
        if frobenius_norm(server.clusters[j].b) <= _ZERO_B:
            raise DegenerateInputError(
                f"cluster {j} adapter is numerically zero; unseen clients cannot be routed")
        reps.append(ClusterRepresentative(
            index=j, basis=orthonormal_columns(server.clusters[j].b, rank)))
    return reps


def probe_basis(model: HeadModel, train: Samples | EncodedData, root_star: LoraAdapter,
                rank: int, steps: int, lr: float, seed: int = 0) -> Matrix:
    """Run `steps` full-batch gradient steps of a fresh probe adapter above the
    frozen root on `train` and return the probe B's dominant left subspace."""
    if steps < 1:
        raise ConfigurationError("probe needs at least one step")
    p, q = model.class_count, model.backbone.hidden_dim
    probe = init_adapter(p, q, rank, stream(seed, "probe_init"))
    path = AdapterPath(root=root_star, cluster=probe, leaf=zero_adapter(p, q, rank))
    opt = SgdConfig(lr=lr, epochs=steps, batch_mode="full")
    trained = local_update(model, path, train, Tier.CLUSTER, (), (), opt=opt)
    if frobenius_norm(trained.b) <= _ZERO_B:
        raise DegenerateInputError("probe basis stayed numerically zero")
    return orthonormal_columns(trained.b, rank)


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
    check_types(int, epochs=epochs)
    if epochs < 0:
        raise ConfigurationError("epochs must be non-negative")
    reps = build_representatives(server, config.rank)
    train, test = encode(model, client.train), encode(model, client.test)
    u_u = probe_basis(model, train, server.root, config.rank,
                      steps=config.probe_steps, lr=config.lr, seed=seed)
    j = assign_cluster(u_u, reps)
    p, q = model.class_count, model.backbone.hidden_dim
    cluster_ad = server.clusters[j]
    leaf = init_adapter(p, q, config.rank, stream(seed, "unseen_leaf_init"))
    path = AdapterPath(root=server.root, cluster=cluster_ad, leaf=leaf)
    # the fresh leaf has b = 0, so this is exactly the root+cluster model
    trajectory = [accuracy(model, path, test)]
    _, opt, gammas = _stage_settings(config, Tier.LEAF)
    frozen = [path.adapter(tier).b for tier in Tier.LEAF.earlier]
    shuffle = stream(seed, "unseen_leaf_shuffle")
    for _ in range(epochs):
        leaf = local_update(model, path, train, Tier.LEAF, frozen, gammas,
                            opt=opt, rng=shuffle)
        path = path.replace(Tier.LEAF, leaf)
        trajectory.append(accuracy(model, path, test))
    return AdaptationResult(assigned_cluster=j, path=path,
                            accuracy_trajectory=trajectory)
