"""ClientStack packs its clients' rows once: the stored-order block layout and
the mask of its real rows are cached read-only, and a mini-batch epoch
gathers its shuffle into buffers of its own call, so reusing one stack never
changes a bit of any result."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fedtier.lora import AdapterPath, LoraAdapter, Tier, compose_path
from fedtier.model import (ClientStack, Samples, SgdConfig, build_model, encode, local_update,
                           _DEFAULT_BATCH, _stack_losses)

# sizes below, at and above the block size, and not multiples of it
SIZES = [5, 16, 45, 33, 1]
MINI = SgdConfig(lr=0.1, epochs=3, batch_mode="mini", batch_size=16)


def case(seed=0, c=5, h=7, d=4, r=2):
    rng = np.random.default_rng(seed)
    model = build_model(d, c, h, seed=seed)
    encs = [encode(model, Samples(rng.normal(size=(n, d)), rng.integers(c, size=n)))
            for n in SIZES]

    def rand_adapter():
        return LoraAdapter(b=0.3 * rng.normal(size=(c, r)),
                           a=0.3 * rng.normal(size=(r, h)), rank=r)

    paths = [AdapterPath(root=rand_adapter(), cluster=rand_adapter(), leaf=rand_adapter())
             for _ in SIZES]
    return model, encs, paths


def fresh_streams():
    return [np.random.default_rng([7, i]) for i in range(len(SIZES))]


def mini_update(model, paths, stack):
    return local_update(model, paths, stack, Tier.ROOT, opt=MINI, rng=fresh_streams())


def assert_same(left, right):
    for x, y in zip(left, right, strict=True):
        assert np.array_equal(x.b, y.b) and np.array_equal(x.a, y.a)


def test_repeated_mini_batch_updates_on_one_stack_are_bitwise_equal():
    model, encs, paths = case()
    stack = ClientStack(encs)
    first = mini_update(model, paths, stack)
    second = mini_update(model, paths, stack)
    assert_same(first, second)
    assert_same(first, mini_update(model, paths, ClientStack(encs)))


def test_concurrent_mini_batch_updates_on_one_stack_are_bitwise_equal():
    # more threads than cores, switching often, all racing to build the layout
    model, encs, paths = case(seed=1)
    stack = ClientStack(encs)
    alone = mini_update(model, paths, ClientStack(encs))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(mini_update, model, paths, stack) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        assert_same(result, alone)


def test_losses_after_a_mini_batch_update_match_a_fresh_stack():
    model, encs, paths = case(seed=2)
    stack = ClientStack(encs)
    mini_update(model, paths, stack)
    w = np.stack([compose_path(p, model.w0) for p in paths])
    assert np.array_equal(_stack_losses(w, stack), _stack_losses(w, ClientStack(encs)))


def test_layout_is_cached_read_only_and_holds_the_stored_rows():
    _, encs, _ = case(seed=3)
    stack = ClientStack(encs)
    z, labels, real = stack.layout(16)
    assert stack.layout(16)[0] is z
    assert z.shape == (len(SIZES), 3, 16, encs[0].z.shape[1]) and labels.shape == z.shape[:3]
    assert real.shape == labels.shape
    assert real.reshape(len(SIZES), -1).sum(axis=1).tolist() == SIZES
    for arr in (z, labels, real):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1
    for s, e in enumerate(encs):
        n = len(e)
        assert np.array_equal(z[s].reshape(-1, z.shape[-1])[:n], e.z)
        assert np.array_equal(labels[s].reshape(-1)[:n], e.y)
        assert not z[s].reshape(-1, z.shape[-1])[n:].any() and not labels[s].reshape(-1)[n:].any()


def test_gather_writes_each_client_in_its_own_order():
    _, encs, _ = case(seed=4)
    stack = ClientStack(encs)
    orders = [np.random.default_rng(s).permutation(len(e)) for s, e in enumerate(encs)]
    z, labels = stack.gather(*stack.buffers(16), orders)
    for s, (e, order) in enumerate(zip(encs, orders)):
        n = len(e)
        assert np.array_equal(z[s].reshape(-1, z.shape[-1])[:n], e.z[order])
        assert np.array_equal(labels[s].reshape(-1)[:n], e.y[order])
        assert not z[s].reshape(-1, z.shape[-1])[n:].any()


def test_scores_of_one_stack_share_one_real_row_mask():
    _, encs, _ = case(seed=5)
    stack = ClientStack(encs)
    first, second = stack.layout(_DEFAULT_BATCH)[2], stack.layout(_DEFAULT_BATCH)[2]
    assert first is second and not first.flags.writeable
    assert first.reshape(len(SIZES), -1).sum(axis=1).tolist() == SIZES


def test_a_stack_taken_at_an_index_array_holds_those_clients_in_that_order():
    # the stage engine trains the running members of the run's stack on stack[ids]
    _, encs, _ = case()
    stack = ClientStack(encs)
    picked = stack[np.array([3, 0, 2])]
    assert [id(e) for e in picked.clients] == [id(encs[i]) for i in (3, 0, 2)]
    assert picked.sizes.tolist() == [SIZES[i] for i in (3, 0, 2)]
    assert [id(e) for e in stack[1:3].clients] == [id(e) for e in encs[1:3]]
