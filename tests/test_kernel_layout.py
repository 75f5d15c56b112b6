"""The blocked kernel's class-outer softmax, its factored gradient and its
mini-batch shuffles.

The kernel stores probabilities class-outer, (C, S, K, block), and reduces
over the class axis of one (C, S·K·block) array. These tests hold it
bitwise to the earlier per-slice class-major formula
(oracles.class_major_probs), at block 1 too, where that layout's classes
were contiguous and numpy summed them pairwise. The gradient runs in
factored form, logits = frozen logits + B (A z), and is held bitwise to the
same formula taken one slice at a time (oracles.class_major_factored_gradient);
the weight-form formula (oracles.class_major_gradient) forms frozen + B A and
sums its products in another order, so it agrees to rounding only. The
shuffle tests hold every mini-batch step to one tier_gradient step on the
rows a twin stream's permutation(n) picks. A full-batch call's `losses`
output, read off its first step, is held bitwise to a loss pass
(_logit_losses) over the factored logits at its starting factors.
"""

import itertools

import numpy as np
import pytest

from fedtier import model
from fedtier.errors import ConfigurationError
from fedtier.lora import AdapterPath, LoraAdapter, Tier
from fedtier.model import (ClientStack, EncodedData, Samples, SgdConfig, build_model, encode,
                           local_update, tier_gradient)
from fedtier.streams import stream
from one_client import update_path
from oracles import (class_major_factored_gradient, class_major_gradient, class_major_losses,
                     class_major_probs)

H, R = 5, 2
GRID = list(itertools.product((1, 4, 90), (1, 3), (2, 12, 100)))   # (S, K, C)
# the factored and weight-form gradients' largest gap over the grid and its
# blocks, relative to the weight form's largest entry, measured 4.9e-15
WEIGHT_FORM_RTOL = 1e-14


def kernel_outputs(s, k, c, block, monkeypatch):
    """(the kernel's softmax probabilities as (S, K, C, block), dB, dA,
    _stack_losses) and the class-major oracles' same four, on inputs drawn
    from one seed per shape, and the weight-form oracle's (dB, dA). The kernel reads z and labels as non-contiguous
    [:, 1:k+1] slices of larger arrays; the losses read a stack of s clients
    that each fill k blocks of the layout at `block`, patched in as the
    scoring block."""
    rng = np.random.default_rng([s, k, c, block])
    z = rng.normal(size=(s, k + 2, block, H))[:, 1:k + 1]
    labels = rng.integers(c, size=(s, k + 2, block))[:, 1:k + 1]
    frozen, b, a = (rng.normal(size=shape) for shape in ((s, c, H), (s, c, R), (s, R, H)))
    rows = rng.integers(1, k * block + 1, size=s)
    sizes = rng.integers((k - 1) * block + 1, k * block + 1, size=s)
    stack = ClientStack([EncodedData(rng.normal(size=(n, H)), rng.integers(c, size=n))
                         for n in sizes])
    w = rng.normal(size=(s, c, H))
    monkeypatch.setattr(model, "_DEFAULT_BATCH", block)
    exps, sums = model._softmax_exps(model._frozen_logits(frozen + b @ a, z))
    new = ((exps / sums).transpose(1, 2, 0, 3),
           *model._stack_gradient(model._frozen_logits(frozen, z), b, a, z,
                                  model._label_index(labels).ravel(), rows[:, None, None],
                                  np.empty((s, c, 0)), np.empty((s, 0, c))),
           model._stack_losses(w, stack))
    ref = (class_major_probs(frozen + b @ a, z),
           *class_major_factored_gradient(frozen, b, a, z, labels, rows),
           class_major_losses(w, *stack.layout(block)))
    return new, ref, class_major_gradient(frozen, b, a, z, labels, rows)


@pytest.mark.parametrize("s, k, c, block", [(*g, block) for g in GRID for block in (1, 2, 7, 32)])
def test_kernel_is_bitwise_the_class_major_formula(s, k, c, block, monkeypatch):
    new, ref, weight_form = kernel_outputs(s, k, c, block, monkeypatch)
    assert new[0].shape == (s, k, c, block)
    for got, want in zip(new, ref):
        assert np.array_equal(got, want)
    for got, want in zip(new[1:3], weight_form):
        assert np.max(np.abs(got - want)) <= WEIGHT_FORM_RTOL * np.max(np.abs(want))


# the factored logits' largest gap from the weight form's over the grid,
# relative to the weight form's largest entry, measured 4.0e-16
FACTORED_LOGITS_RTOL = 1e-14


@pytest.mark.parametrize("s, k, c, block", [(*g, block) for g in GRID for block in (1, 2, 7, 32)])
def test_factored_logits_are_the_composed_weights_logits_to_rounding(s, k, c, block):
    rng = np.random.default_rng([s, k, c, block, 1])
    z = rng.normal(size=(s, k + 2, block, H))[:, 1:k + 1]
    frozen, b, a = (rng.normal(size=shape) for shape in ((s, c, H), (s, c, R), (s, R, H)))
    got, az = model._factored_logits(model._frozen_logits(frozen, z), b, a, z)
    want = model._frozen_logits(frozen + b @ a, z)
    assert got.shape == want.shape == (c, s, k, block)
    assert np.max(np.abs(got - want)) <= FACTORED_LOGITS_RTOL * np.max(np.abs(want))
    assert np.array_equal(az, a[:, None] @ z.swapaxes(-1, -2))


SIZES, LR, GAMMAS, EPOCHS = (20, 50, 90), 0.1, (0.5, 1.5), 2   # 1, 2 and 3 blocks of 32


def shuffle_case():
    rng = np.random.default_rng(4)
    net = build_model(4, 5, 7, seed=4)
    encs = [encode(net, Samples(rng.normal(size=(n, 4)), rng.integers(5, size=n))) for n in SIZES]

    def rand_adapter():
        return LoraAdapter(b=0.3 * rng.normal(size=(5, R)), a=0.3 * rng.normal(size=(R, 7)),
                           rank=R)

    paths = [AdapterPath(*[rand_adapter() for _ in Tier]) for _ in SIZES]
    return net, encs, paths


def twin_steps(net, enc, path, twin):
    """Every mini-batch step's starting (b, a) and the final leaf, taking
    each epoch's blocks of 32 from twin.permutation(n) and stepping along
    tier_gradient on each block's rows."""
    steps = []
    for _ in range(EPOCHS):
        order = twin.permutation(len(enc))
        for lo in range(0, len(enc), 32):
            rows = order[lo:lo + 32]
            steps.append((path.leaf.b, path.leaf.a))
            db, da = tier_gradient(net, path, EncodedData(enc.z[rows], enc.y[rows]), Tier.LEAF,
                                   GAMMAS)
            path = path.replace(Tier.LEAF, LoraAdapter(b=path.leaf.b - LR * db,
                                                       a=path.leaf.a - LR * da, rank=R))
    return steps, path.leaf


def test_each_mini_batch_step_is_a_tier_gradient_step_on_a_twin_permutation(monkeypatch):
    net, encs, paths = shuffle_case()
    opt = SgdConfig(lr=LR, epochs=EPOCHS, batch_mode="mini", batch_size=32)
    twins = [twin_steps(net, enc, path, stream(7, "leaf_shuffle", s))
             for s, (enc, path) in enumerate(zip(encs, paths))]
    seen = []
    kernel = model._stack_gradient

    def recording(frozen_w, b, a, *rest):
        seen.append((b[0].copy(), a[0].copy()))
        return kernel(frozen_w, b, a, *rest)

    monkeypatch.setattr(model, "_stack_gradient", recording)
    for s, (enc, path) in enumerate(zip(encs, paths)):
        seen.clear()
        out = update_path(net, path, enc, Tier.LEAF, GAMMAS, opt=opt,
                          rng=stream(7, "leaf_shuffle", s))
        steps, leaf = twins[s]
        assert len(seen) == len(steps) == EPOCHS * (s + 1)
        for (b, a), (want_b, want_a) in zip(seen, steps):
            assert np.array_equal(b, want_b) and np.array_equal(a, want_a)
        assert np.array_equal(out.b, leaf.b) and np.array_equal(out.a, leaf.a)


def test_stacked_clients_shuffle_their_own_slices():
    # the three clients share one order buffer: each slice takes its own draws
    net, encs, paths = shuffle_case()
    opt = SgdConfig(lr=LR, epochs=EPOCHS, batch_mode="mini", batch_size=32)
    out = model._stack_inputs(net, paths, Tier.LEAF, GAMMAS)
    local_update(net, out, ClientStack(encs), opt=opt,
                 rng=[stream(7, "leaf_shuffle", s) for s in range(len(SIZES))])
    for s, (enc, path) in enumerate(zip(encs, paths)):
        _, leaf = twin_steps(net, enc, path, stream(7, "leaf_shuffle", s))
        assert np.array_equal(out.b[s], leaf.b) and np.array_equal(out.a[s], leaf.a)


def full_batch_case(s, k, c, block, rank, penalized):
    """A full-batch call's stack and KernelInputs: s clients at `block`, the
    first filling k blocks and the others ragged, 1 to k·block rows, so
    their slots end in padding rows and padding blocks; rank-`rank`
    factors, and a penalty pair of 3 columns or none."""
    rng = np.random.default_rng([s, k, c, block, rank, penalized])
    sizes = rng.integers(1, k * block + 1, size=s)
    sizes[0] = rng.integers((k - 1) * block + 1, k * block + 1)
    stack = ClientStack([EncodedData(rng.normal(size=(n, H)), rng.integers(c, size=n))
                         for n in sizes])
    p = 3 if penalized else 0
    inputs = model.KernelInputs(*(scale * rng.normal(size=shape) for scale, shape in (
        (1.0, (s, c, H)), (0.3, (s, c, rank)), (0.3, (s, rank, H)), (0.1, (s, c, p)),
        (0.1, (s, p, c)))))
    return stack, inputs


@pytest.mark.parametrize("rank, penalized", [(1, False), (1, True), (R, False), (R, True)])
@pytest.mark.parametrize("s, k, c, block", [(*g, block) for g in GRID for block in (1, 2, 7, 32)])
def test_a_full_batch_call_reads_its_starting_losses_off_its_first_step(s, k, c, block, rank,
                                                                        penalized):
    stack, inputs = full_batch_case(s, k, c, block, rank, penalized)
    assert stack.layout(block)[0].shape[:2] == (s, k)
    z, labels, real = stack.layout(block)
    logits, _ = model._factored_logits(model._frozen_logits(inputs.frozen, z), inputs.b,
                                       inputs.a, z)
    want = model._logit_losses(logits, labels, real, stack.sizes)
    start_b, plain = inputs.b.copy(), inputs._replace(b=inputs.b.copy(), a=inputs.a.copy())
    net, opt = build_model(3, c, H, seed=0), SgdConfig(lr=0.05, epochs=2, batch_size=block)
    losses = np.full(s, np.nan)
    assert local_update(net, inputs, stack, opt=opt, losses=losses) is inputs
    local_update(net, plain, stack, opt=opt)
    assert np.array_equal(losses, want)
    # reading the losses changes no bit of the step, and the call stepped
    assert np.array_equal(inputs.b, plain.b) and np.array_equal(inputs.a, plain.a)
    assert not np.array_equal(inputs.b, start_b)


@pytest.mark.parametrize("batch_mode, length, epochs", [
    ("mini", 3, 1), ("full", 2, 1), ("full", 4, 1), ("full", 3, 0)],
    ids=["mini_batch", "short", "long", "no_step"])
def test_losses_are_refused_where_no_full_batch_step_reads_them(batch_mode, length, epochs):
    stack, inputs = full_batch_case(3, 2, 5, 4, R, True)
    start = inputs.b.copy(), inputs.a.copy()
    opt = SgdConfig(lr=0.05, epochs=epochs, batch_mode=batch_mode, batch_size=4)
    with pytest.raises(ConfigurationError, match="losses are read off a full-batch call's "
                                                 "first step"):
        local_update(build_model(3, 5, H, seed=0), inputs, stack, opt=opt,
                     rng=[stream(7, "leaf_shuffle", i) for i in range(3)],
                     losses=np.empty(length))
    assert np.array_equal(inputs.b, start[0]) and np.array_equal(inputs.a, start[1])
