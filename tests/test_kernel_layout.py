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
rows a twin stream's permutation(n) picks.
"""

import itertools

import numpy as np
import pytest

from fedtier import model
from fedtier.lora import AdapterPath, LoraAdapter, Tier
from fedtier.model import (ClientStack, EncodedData, Samples, SgdConfig, build_model, encode,
                           local_update, tier_gradient)
from fedtier.streams import stream
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
        out = local_update(net, path, enc, Tier.LEAF, GAMMAS, opt=opt,
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
    local_update(net, out, ClientStack(encs), Tier.LEAF, opt=opt,
                 rng=[stream(7, "leaf_shuffle", s) for s in range(len(SIZES))])
    for s, (enc, path) in enumerate(zip(encs, paths)):
        _, leaf = twin_steps(net, enc, path, stream(7, "leaf_shuffle", s))
        assert np.array_equal(out.b[s], leaf.b) and np.array_equal(out.a[s], leaf.a)
