"""ClientStack packs its clients' rows once: the stored-order block layout and
the mask of its real rows are cached read-only, and a mini-batch call's
epochs (ClientStack.epochs) shuffle them, with their frozen logits, into one
buffer triple of the call's own, so reusing one stack never changes a bit of
any result, and a call's memory does not grow with its epochs."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fedtier.lora import AdapterPath, LoraAdapter, Tier, compose_path
from fedtier.model import (ClientStack, EncodedData, Samples, SgdConfig, build_model, encode,
                           local_update, _DEFAULT_BATCH, _frozen_logits, _stack_inputs,
                           _stack_losses)

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
    """The paths' KernelInputs after one mini-batch local_update on stack."""
    return local_update(model, _stack_inputs(model, paths, Tier.ROOT), stack, Tier.ROOT,
                        opt=MINI, rng=fresh_streams())


def assert_same(left, right):
    for x, y in zip(left, right, strict=True):
        assert np.array_equal(x, y)


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


def successive_shuffles(rng, n, epochs):
    orders = []
    for _ in range(epochs):
        order = np.arange(n)
        rng.shuffle(order)
        orders.append(order)
    return np.stack(orders)


def numbered_rows(n, h=3):
    """EncodedData whose rows carry their own index: z[i] = (i, ..., i), y[i] = i."""
    return EncodedData(z=np.repeat(np.arange(n, dtype=np.float64)[:, None], h, axis=1),
                       y=np.arange(n))


def layout_logits(stack, block, c=2):
    """Frozen logits of the stack's layout at `block` under random weights:
    class-outer (C, S, blocks, block), zero at every padding slot."""
    w = np.random.default_rng(c).normal(size=(len(stack.clients), c, stack.clients[0].z.shape[1]))
    return _frozen_logits(w, stack.layout(block)[0])


@pytest.mark.parametrize("epochs", [1, 4, 100])
@pytest.mark.parametrize("n", [1, 2, 58, 256, 257])
def test_epochs_are_successive_shuffles(n, epochs):
    # epoch e holds the rows in the e-th shuffle of arange(n), and the
    # generator ends where those shuffles leave it
    drawn, shuffled = np.random.default_rng(n), np.random.default_rng(n)
    want = successive_shuffles(shuffled, n, epochs)
    stack = ClientStack([numbered_rows(n)])
    got = [labels.reshape(-1)[:n].copy()
           for _, labels, _ in stack.epochs([drawn], epochs, 32, layout_logits(stack, 32))]
    assert np.array_equal(np.stack(got), want)
    assert drawn.bit_generator.state == shuffled.bit_generator.state


def test_epochs_shuffle_each_client_in_its_own_slot_into_one_buffer_triple():
    # the rows, their labels and their frozen logits move through one order
    sizes, block, epochs = [3, 58, 1, 257, 2], 16, 4
    stack = ClientStack([numbered_rows(n) for n in sizes])
    given = layout_logits(stack, block, c=3)
    want = [successive_shuffles(np.random.default_rng(s), n, epochs) for s, n in enumerate(sizes)]
    seen = []
    rngs = [np.random.default_rng(s) for s in range(len(sizes))]
    for e, (z, labels, logits) in enumerate(stack.epochs(rngs, epochs, block, given)):
        assert z.shape[:3] == labels.shape == (len(sizes), -(-max(sizes) // block), block)
        assert logits.shape == given.shape == (3, *labels.shape)
        seen.append((z, labels, logits))
        for s, n in enumerate(sizes):
            rows, row_labels = z[s].reshape(-1, z.shape[-1]), labels[s].reshape(-1)
            row_logits, packed = logits[:, s].reshape(3, -1), given[:, s].reshape(3, -1)
            assert np.array_equal(row_labels[:n], want[s][e])
            assert np.array_equal(rows[:n], numbered_rows(n).z[want[s][e]])
            assert np.array_equal(row_logits[:, :n], packed[:, want[s][e]])
            assert not rows[n:].any() and not row_labels[n:].any() and not row_logits[:, n:].any()
    assert len(seen) == epochs
    assert all(all(x is first for x, first in zip(triple, seen[0])) for triple in seen)


def test_a_mini_batch_call_takes_no_more_memory_at_a_thousand_epochs_than_at_one():
    # the layout is packed first, so each call's peak is its own: one
    # (epochs x rows) array of row orders would add 800 kB at 1,000 epochs
    model, encs, paths = case(seed=6)
    stack = ClientStack(encs)
    stack.layout(MINI.batch_size)

    def peak(epochs):
        inputs = _stack_inputs(model, paths, Tier.ROOT)
        opt = SgdConfig(lr=MINI.lr, epochs=epochs, batch_mode="mini", batch_size=MINI.batch_size)
        tracemalloc.start()
        try:
            local_update(model, inputs, stack, Tier.ROOT, opt=opt, rng=fresh_streams())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, thousand = peak(1), peak(1000)
    assert thousand <= one + 8 * 1024, (one, thousand)


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
