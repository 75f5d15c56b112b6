"""The server rules' stacked forms: one ema_update call per round for every
client's basis, and the product-space aggregate as one reduction over the
member axis. Each is bitwise the per-client form it replaces."""

from functools import reduce

import numpy as np
import pytest

from fedtier.clustering import BasisTracker, ema_update
from fedtier.errors import ConfigurationError, DegenerateInputError
from fedtier.federation import aggregate_product


def test_stacked_ema_update_is_bitwise_the_per_client_loop():
    rng = np.random.default_rng(3)
    stacked, looped = BasisTracker(0.9), BasisTracker(0.9)
    ids = [4, 0, 7, 2, 9]
    for _ in range(3):
        bases = rng.normal(size=(len(ids), 12, 2))
        assert ema_update(stacked, ids, bases) is stacked
        for i, b in zip(ids, bases):
            ema_update(looped, i, b)
        assert list(stacked.bases) == list(looped.bases) == ids
        for i in ids:
            assert np.array_equal(stacked.bases[i], looped.bases[i])


def test_stacked_ema_update_folds_new_and_seen_clients_together():
    rng = np.random.default_rng(4)
    stacked, looped = BasisTracker(0.8), BasisTracker(0.8)
    first = rng.normal(size=(2, 5, 2))
    ema_update(stacked, [1, 3], first)
    for i, b in zip([1, 3], first):
        ema_update(looped, i, b)
    mixed = rng.normal(size=(3, 5, 2))   # client 2 is new, 1 and 3 are seen
    ema_update(stacked, [3, 2, 1], mixed)
    for i, b in zip([3, 2, 1], mixed):
        ema_update(looped, i, b)
    for i in (1, 2, 3):
        assert np.array_equal(stacked.bases[i], looped.bases[i])


def test_a_zero_norm_basis_in_the_stack_names_its_client_and_stores_nothing():
    tracker = BasisTracker(0.9)
    bases = np.random.default_rng(5).normal(size=(4, 6, 2))
    bases[2] = 0.0
    with pytest.raises(DegenerateInputError, match="client 12 basis has zero norm"):
        ema_update(tracker, [10, 11, 12, 13], bases)
    assert tracker.bases == {}


def test_a_collapsed_ema_in_the_stack_names_its_client():
    tracker = BasisTracker(0.5)
    first = np.random.default_rng(6).normal(size=(2, 6, 2))
    ema_update(tracker, [0, 1], first)
    kept = {i: b.copy() for i, b in tracker.bases.items()}
    with pytest.raises(DegenerateInputError, match="client 1 EMA collapsed to zero"):
        ema_update(tracker, [0, 1], np.stack([first[0], -first[1]]))
    assert all(np.array_equal(tracker.bases[i], kept[i]) for i in kept)


@pytest.mark.parametrize("ids, shape", [([0, 0], (2, 4, 2)), ([0, 1], (3, 4, 2)),
                                        ([0, 1], (2, 4))])
def test_stacked_ema_update_needs_one_matrix_per_distinct_client(ids, shape):
    with pytest.raises(ConfigurationError):
        ema_update(BasisTracker(0.9), ids, np.ones(shape))


@pytest.mark.parametrize("n", [1, 2, 8, 30, 90])
def test_aggregate_product_is_bitwise_the_member_order_sum(n):
    rng = np.random.default_rng(n)
    b, a = rng.normal(size=(n, 12, 2)), rng.normal(size=(n, 2, 32))
    weights = rng.random(n)
    weights /= weights.sum()
    want = reduce(np.add, (w * p for w, p in zip(weights, b @ a)))
    assert np.array_equal(aggregate_product((b, a), weights), want)
