"""Every random draw in fedtier comes from stream(seed, purpose, index), numpy's
child of SeedSequence(seed) under the spawn key (purpose id, index): the seed is
padded before the key, so no two keys alias. Ids are PURPOSES positions: append only."""

import numpy as np

from .errors import check_seed

PURPOSES = ("pool", "partition", "unseen_split", "csv_split", "model", "gradcheck", "kmeans",
            "root_init", "cluster_init", "leaf_init", "root_shuffle", "cluster_shuffle",
            "leaf_shuffle", "probe_init", "unseen_leaf_init", "unseen_leaf_shuffle")


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """The generator of purpose for index: an attempt, restart, cluster or client."""
    check_seed(seed=seed)
    key = (PURPOSES.index(purpose), index)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
