import math

import numpy as np
import pytest

from fedtier.errors import ConfigurationError, PreconditionError
from fedtier.lora import AdapterPath, LoraAdapter, Tier, compose_path, orth_penalty_grad, zero_adapter
from fedtier.model import (ClientStack, FrozenBackbone, HeadModel, Samples, SgdConfig,
                           build_model, dataset_loss, encode, fd_tier_gradient, forward,
                           gradient_check, local_update, tier_gradient, _stack_losses)
from oracles import loop_matmul, softmax_loss_oracle


def zero_path(p, q, r=1):
    return AdapterPath(root=zero_adapter(p, q, r), cluster=zero_adapter(p, q, r),
                       leaf=zero_adapter(p, q, r))


def make_samples(rng, n, d, c):
    return Samples(rng.normal(size=(n, d)), rng.integers(c, size=n))


class TestSamples:
    def test_rejects_1d_features_and_mismatched_label_count(self):
        with pytest.raises(ConfigurationError):
            Samples(np.zeros(4), [0, 1, 2, 3])
        with pytest.raises(ConfigurationError):
            Samples(np.zeros((3, 2)), [0, 1])

    def test_index_arrays_and_slices_give_samples(self):
        data = Samples(np.arange(8.0).reshape(4, 2), [0, 1, 2, 0])
        picked = data[np.array([3, 1])]
        assert np.array_equal(picked.x, [[6.0, 7.0], [2.0, 3.0]])
        assert np.array_equal(picked.y, [0, 1])
        assert len(data[1:]) == 3 and data.y.dtype == np.int64
        with pytest.raises(ConfigurationError):
            data[0]  # no per-row accessor

    @pytest.mark.parametrize("bad", [1.7, np.nan, np.inf])
    def test_labels_must_be_whole_numbers(self, bad):
        with pytest.raises(ConfigurationError):
            Samples(np.zeros((2, 2)), [0.0, bad])
        assert np.array_equal(Samples(np.zeros((2, 2)), [0.0, 2.0]).y, [0, 2])


class TestForward:
    def test_zero_adapters_give_base_logits(self, toy_model):
        x = np.ones(4)
        path = zero_path(3, 6)
        z = np.tanh(toy_model.backbone.m @ x + toy_model.backbone.bias)
        assert np.array_equal(forward(toy_model, path, x), toy_model.w0 @ z)

    def test_cancelling_update_gives_zero_logits_and_lnC_loss(self, toy_model):
        # delta = -w0 via b = -I, a = w0
        cancel = LoraAdapter(b=-np.eye(3), a=toy_model.w0.copy(), rank=3)
        path = AdapterPath(root=cancel, cluster=zero_adapter(3, 6, 3),
                           leaf=zero_adapter(3, 6, 3))
        x = np.array([0.3, -0.2, 0.9, 0.1])
        assert np.max(np.abs(forward(toy_model, path, x))) <= 1e-12
        data = Samples(np.stack([x, -x]), [0, 2])
        assert dataset_loss(toy_model, path, data) == pytest.approx(math.log(3), abs=1e-12)

    def test_matches_compose_then_multiply_oracle(self, toy_model):
        rng = np.random.default_rng(0)
        path = AdapterPath(
            root=LoraAdapter(b=rng.normal(size=(3, 1)), a=rng.normal(size=(1, 6)), rank=1),
            cluster=LoraAdapter(b=rng.normal(size=(3, 1)), a=rng.normal(size=(1, 6)), rank=1),
            leaf=LoraAdapter(b=rng.normal(size=(3, 1)), a=rng.normal(size=(1, 6)), rank=1))
        x = rng.normal(size=4)
        w = compose_path(path, toy_model.w0)
        z = np.tanh(loop_matmul(toy_model.backbone.m, x[:, None]).ravel()
                    + toy_model.backbone.bias)
        oracle = loop_matmul(w, z[:, None]).ravel()
        assert np.max(np.abs(forward(toy_model, path, x) - oracle)) <= 1e-12

    def test_shape_mismatch(self, toy_model):
        with pytest.raises(ConfigurationError):
            forward(toy_model, zero_path(3, 6), np.zeros(5))


class TestDatasetLoss:
    def test_uniform_logits(self):
        model = HeadModel(w0=np.zeros((4, 5)),
                          backbone=FrozenBackbone(m=np.ones((5, 2)), bias=np.zeros(5)))
        data = Samples(np.zeros((4, 2)), np.arange(4))
        assert dataset_loss(model, zero_path(4, 5), data) == pytest.approx(
            math.log(4), abs=1e-12)

    def test_confident_correct_prediction(self):
        w0 = np.zeros((3, 2))
        w0[1, :] = 1000.0  # class 1 logit huge wherever features are positive
        model = HeadModel(w0=w0, backbone=FrozenBackbone(m=np.eye(2), bias=np.ones(2)))
        data = Samples(np.ones((1, 2)), [1])
        assert dataset_loss(model, zero_path(3, 2), data) <= 1e-9

    def test_matches_hand_softmax_oracle(self, toy_model):
        rng = np.random.default_rng(1)
        data = make_samples(rng, 3, 4, 3)
        path = AdapterPath(
            root=LoraAdapter(b=rng.normal(size=(3, 2)), a=rng.normal(size=(2, 6)), rank=2),
            cluster=zero_adapter(3, 6, 2), leaf=zero_adapter(3, 6, 2))
        rows = [forward(toy_model, path, x) for x in data.x]
        expect = softmax_loss_oracle(rows, data.y)
        assert dataset_loss(toy_model, path, data) == pytest.approx(expect, rel=1e-12)

    def test_empty_dataset(self, toy_model):
        with pytest.raises(PreconditionError):
            dataset_loss(toy_model, zero_path(3, 6), Samples(np.zeros((0, 4)), []))

    def test_loss_nonnegative(self, toy_model):
        rng = np.random.default_rng(2)
        data = make_samples(rng, 8, 4, 3)
        assert dataset_loss(toy_model, zero_path(3, 6), data) >= 0.0


class TestTierGradient:
    def test_zero_gradient_at_exact_minimum(self):
        # duplicated contradictory labels on one input: the uniform prediction
        # is the exact minimizer, so the gradient vanishes
        model = HeadModel(w0=np.zeros((2, 3)),
                          backbone=FrozenBackbone(m=np.ones((3, 2)), bias=np.zeros(3)))
        x = np.array([0.4, -0.7])
        data = Samples(np.stack([x, x]), [0, 1])
        db, da = tier_gradient(model, zero_path(2, 3), data, Tier.ROOT)
        assert np.max(np.abs(db)) <= 1e-8
        assert np.max(np.abs(da)) <= 1e-8

    def test_pure_penalty_decomposition(self):
        # zero backbone output kills the data gradient entirely, leaving the
        # penalty term alone
        model = HeadModel(w0=np.zeros((3, 4)),
                          backbone=FrozenBackbone(m=np.zeros((4, 2)), bias=np.zeros(4)))
        rng = np.random.default_rng(3)
        active = LoraAdapter(b=rng.normal(size=(3, 2)), a=rng.normal(size=(2, 4)), rank=2)
        path = AdapterPath(root=zero_adapter(3, 4, 2), cluster=active,
                           leaf=zero_adapter(3, 4, 2))
        frozen = rng.normal(size=(3, 2))
        data = Samples(np.zeros((2, 2)), [0, 1])
        db, da = tier_gradient(model, path, data, Tier.CLUSTER, (frozen,), (1.0,))
        assert np.allclose(db, orth_penalty_grad(frozen, active.b), atol=1e-15)
        assert np.max(np.abs(da)) == 0.0

    def test_matches_finite_differences_on_random_configs(self):
        assert gradient_check(trials=12, seed=5) <= 1e-4

    def test_leaf_gradient_with_two_penalties(self, toy_model):
        rng = np.random.default_rng(4)
        path = AdapterPath(
            root=LoraAdapter(b=rng.normal(size=(3, 1)), a=rng.normal(size=(1, 6)), rank=1),
            cluster=LoraAdapter(b=rng.normal(size=(3, 1)), a=rng.normal(size=(1, 6)), rank=1),
            leaf=LoraAdapter(b=rng.normal(size=(3, 1)), a=rng.normal(size=(1, 6)), rank=1))
        data = make_samples(rng, 6, 4, 3)
        frozen = (rng.normal(size=(3, 1)), rng.normal(size=(3, 1)))
        gammas = (0.7, 1.3)
        db, da = tier_gradient(toy_model, path, data, Tier.LEAF, frozen, gammas)
        fdb, fda = fd_tier_gradient(toy_model, path, data, Tier.LEAF, frozen, gammas)
        for g, f in ((db, fdb), (da, fda)):
            assert np.max(np.abs(g - f)) / max(np.max(np.abs(f)), 1e-12) <= 1e-4

    def test_mismatched_penalty_args(self, toy_model):
        data = Samples(np.zeros((1, 4)), [0])
        with pytest.raises(ConfigurationError):
            tier_gradient(toy_model, zero_path(3, 6), data, Tier.ROOT,
                          (np.zeros((3, 1)),), ())

    def test_unknown_tier(self, toy_model):
        data = Samples(np.zeros((1, 4)), [0])
        with pytest.raises(ConfigurationError):
            tier_gradient(toy_model, zero_path(3, 6), data, "root")


class TestLocalUpdate:
    def test_zero_epochs_returns_unchanged(self, toy_model):
        rng = np.random.default_rng(5)
        path = zero_path(3, 6, 2)
        data = make_samples(rng, 5, 4, 3)
        out = local_update(toy_model, path, data, Tier.ROOT,
                           opt=SgdConfig(lr=0.1, epochs=0))
        assert np.array_equal(out.b, path.root.b)
        assert np.array_equal(out.a, path.root.a)

    def test_single_full_batch_step_is_one_gradient_step(self, toy_model):
        rng = np.random.default_rng(6)
        start = LoraAdapter(b=rng.normal(size=(3, 2)), a=rng.normal(size=(2, 6)), rank=2)
        path = AdapterPath(root=start, cluster=zero_adapter(3, 6, 2),
                           leaf=zero_adapter(3, 6, 2))
        data = make_samples(rng, 7, 4, 3)
        db, da = tier_gradient(toy_model, path, data, Tier.ROOT)
        out = local_update(toy_model, path, data, Tier.ROOT,
                           opt=SgdConfig(lr=0.05, epochs=1))
        assert np.array_equal(out.b, start.b - 0.05 * db)
        assert np.array_equal(out.a, start.a - 0.05 * da)

    def test_frozen_tiers_bitwise_unchanged(self, toy_model):
        rng = np.random.default_rng(7)
        path = AdapterPath(
            root=LoraAdapter(b=rng.normal(size=(3, 1)), a=rng.normal(size=(1, 6)), rank=1),
            cluster=LoraAdapter(b=rng.normal(size=(3, 1)), a=rng.normal(size=(1, 6)), rank=1),
            leaf=LoraAdapter(b=rng.normal(size=(3, 1)), a=rng.normal(size=(1, 6)), rank=1))
        root_b = path.root.b.copy()
        root_a = path.root.a.copy()
        leaf_b = path.leaf.b.copy()
        leaf_a = path.leaf.a.copy()
        data = make_samples(rng, 6, 4, 3)
        local_update(toy_model, path, data, Tier.CLUSTER, (path.root.b,), (1.0,),
                     opt=SgdConfig(lr=0.1, epochs=3))
        assert np.array_equal(path.root.b, root_b)
        assert np.array_equal(path.root.a, root_a)
        assert np.array_equal(path.leaf.b, leaf_b)
        assert np.array_equal(path.leaf.a, leaf_a)

    def test_separable_toy_reaches_full_accuracy(self):
        rng = np.random.default_rng(8)
        model = build_model(feature_dim=2, class_count=2, hidden_dim=8, seed=3)
        data = Samples(np.repeat([[4.0, 4.0], [-4.0, -4.0]], 5, axis=0)
                       + rng.normal(size=(10, 2)), np.repeat([0, 1], 5))
        path = AdapterPath(root=LoraAdapter(b=np.zeros((2, 2)),
                                            a=0.01 * rng.normal(size=(2, 8)), rank=2),
                           cluster=zero_adapter(2, 8, 2), leaf=zero_adapter(2, 8, 2))
        trained = local_update(model, path, data, Tier.ROOT,
                               opt=SgdConfig(lr=0.5, epochs=200))
        final = path.replace(Tier.ROOT, trained)
        logits = np.stack([forward(model, final, x) for x in data.x])
        acc = float(np.mean(np.argmax(logits, axis=1) == data.y))
        assert acc == 1.0

    def test_full_batch_descent_is_monotone(self, toy_model):
        rng = np.random.default_rng(9)
        data = make_samples(rng, 12, 4, 3)
        path = AdapterPath(root=LoraAdapter(b=np.zeros((3, 2)),
                                            a=0.01 * rng.normal(size=(2, 6)), rank=2),
                           cluster=zero_adapter(3, 6, 2), leaf=zero_adapter(3, 6, 2))
        losses = [dataset_loss(toy_model, path, data)]
        for _ in range(60):
            updated = local_update(toy_model, path, data, Tier.ROOT,
                                   opt=SgdConfig(lr=0.01, epochs=1))
            path = path.replace(Tier.ROOT, updated)
            losses.append(dataset_loss(toy_model, path, data))
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_rejects_bad_optimizer_settings(self):
        with pytest.raises(ConfigurationError):
            SgdConfig(lr=0.0, epochs=1)
        with pytest.raises(ConfigurationError):
            SgdConfig(lr=0.1, epochs=-1)
        with pytest.raises(ConfigurationError):
            SgdConfig(lr=0.1, epochs=1, batch_mode="stochastic")

    def test_minibatch_requires_rng(self, toy_model):
        data = Samples(np.stack([np.zeros(4), np.ones(4)]), [0, 1])
        with pytest.raises(ConfigurationError):
            local_update(toy_model, zero_path(3, 6), data, Tier.ROOT,
                         opt=SgdConfig(lr=0.1, epochs=1, batch_mode="mini"))


def stacked_case(seed, sizes, active, n_frozen, c=5, h=7, d=4, r=2):
    """A model, per-client encodings of the given sizes, per-client paths and
    per-client frozen bases, all drawn from one seed."""
    rng = np.random.default_rng(seed)
    model = build_model(d, c, h, seed=seed)
    encs = [encode(model, make_samples(rng, n, d, c)) for n in sizes]

    def rand_adapter():
        return LoraAdapter(b=0.3 * rng.normal(size=(c, r)),
                           a=0.3 * rng.normal(size=(r, h)), rank=r)

    paths = [AdapterPath(root=rand_adapter(), cluster=rand_adapter(), leaf=rand_adapter())
             for _ in sizes]
    bases = [[rng.normal(size=(c, r)) for _ in sizes] for _ in range(n_frozen)]
    return model, encs, paths, bases


def streams(count, seed=0):
    return [np.random.default_rng([seed, i]) for i in range(count)]


class TestStackedLocalUpdate:
    # sizes below, at and above the batch size, and not multiples of it
    SIZES = [5, 16, 45, 33, 1]

    def test_len_counts_real_rows(self):
        _, encs, _, _ = stacked_case(0, self.SIZES, Tier.ROOT, 0)
        stack = ClientStack(encs)
        assert len(stack) == sum(self.SIZES)
        assert len(stack[1:3]) == 16 + 45

    @pytest.mark.parametrize("batch_mode", ["full", "mini"])
    @pytest.mark.parametrize("active,gammas", [(Tier.ROOT, ()), (Tier.CLUSTER, (0.7,)),
                                               (Tier.LEAF, (1.3, 0.0))])
    def test_client_bits_do_not_depend_on_stack_or_chunking(self, batch_mode, active, gammas):
        model, encs, paths, bases = stacked_case(1, self.SIZES, active, len(gammas))
        opt = SgdConfig(lr=0.2, epochs=3, batch_mode=batch_mode, batch_size=16)
        n = len(encs)
        alone = [local_update(model, paths[s], encs[s], active, [e[s] for e in bases],
                              gammas, opt=opt, rng=streams(n)[s])
                 for s in range(n)]
        whole = local_update(model, paths, ClientStack(encs), active, bases, gammas,
                             opt=opt, rng=streams(n))
        assert isinstance(whole, list) and len(whole) == n
        for cut in range(1, n):
            rngs = streams(n)
            parts = [local_update(model, paths[lo:hi], ClientStack(encs[lo:hi]), active,
                                  [e[lo:hi] for e in bases], gammas, opt=opt, rng=rngs[lo:hi])
                     for lo, hi in ((0, cut), (cut, n))]
            split = parts[0] + parts[1]
            for ad, ref in zip(split, alone):
                assert np.array_equal(ad.b, ref.b) and np.array_equal(ad.a, ref.a)
        for ad, ref, path in zip(whole, alone, paths):
            assert np.array_equal(ad.b, ref.b) and np.array_equal(ad.a, ref.a)
            assert not np.array_equal(ad.b, path.adapter(active).b)

    def test_zero_gamma_penalty_is_skipped(self):
        # a skipped term cannot touch its basis, so even a NaN basis leaves
        # the result bitwise equal to training without that penalty
        model, encs, paths, _ = stacked_case(2, self.SIZES, Tier.CLUSTER, 0)
        opt = SgdConfig(lr=0.2, epochs=2, batch_mode="mini", batch_size=16)
        nan_bases = [[np.full((5, 2), np.nan) for _ in encs]]
        skipped = local_update(model, paths, ClientStack(encs), Tier.CLUSTER, nan_bases,
                               (0.0,), opt=opt, rng=streams(len(encs)))
        plain = local_update(model, paths, ClientStack(encs), Tier.CLUSTER, opt=opt,
                             rng=streams(len(encs)))
        for a, b in zip(skipped, plain):
            assert np.array_equal(a.b, b.b) and np.array_equal(a.a, b.a)

    def test_full_batch_sums_blocks_to_the_full_gradient(self):
        # one full-batch epoch over several blocks is one step along the
        # gradient of the mean loss over all rows
        model, encs, paths, bases = stacked_case(3, [45], Tier.LEAF, 2)
        frozen = [e[0] for e in bases]
        db, da = tier_gradient(model, paths[0], encs[0], Tier.LEAF, frozen, (0.5, 1.5))
        fdb, fda = fd_tier_gradient(model, paths[0], encs[0], Tier.LEAF, frozen, (0.5, 1.5))
        for g, f in ((db, fdb), (da, fda)):
            assert np.max(np.abs(g - f)) / max(np.max(np.abs(f)), 1e-12) <= 1e-4
        out = local_update(model, paths[0], encs[0], Tier.LEAF, frozen, (0.5, 1.5),
                           opt=SgdConfig(lr=0.1, epochs=1, batch_size=16))
        assert np.allclose(out.b, paths[0].leaf.b - 0.1 * db, rtol=0, atol=1e-14)

    def test_full_batch_epochs_are_tier_gradient_steps(self):
        # clients of 1, 2 and 3 blocks share one full-batch span; each epoch
        # is bitwise one step along that client's own tier gradient
        sizes, gammas, lr = [20, 45, 80], (0.5, 1.5), 0.1
        model, encs, paths, bases = stacked_case(5, sizes, Tier.LEAF, 2)
        out = local_update(model, paths, ClientStack(encs), Tier.LEAF, bases, gammas,
                           opt=SgdConfig(lr=lr, epochs=3, batch_size=32))
        for s, (enc, path) in enumerate(zip(encs, paths)):
            frozen = [e[s] for e in bases]
            for _ in range(3):
                db, da = tier_gradient(model, path, enc, Tier.LEAF, frozen, gammas)
                path = path.replace(Tier.LEAF, LoraAdapter(b=path.leaf.b - lr * db,
                                                           a=path.leaf.a - lr * da, rank=2))
            assert np.array_equal(out[s].b, path.leaf.b)
            assert np.array_equal(out[s].a, path.leaf.a)

    def test_stack_needs_one_path_and_rng_per_client(self):
        model, encs, paths, _ = stacked_case(4, self.SIZES, Tier.ROOT, 0)
        opt = SgdConfig(lr=0.1, epochs=1, batch_mode="mini")
        with pytest.raises(ConfigurationError):
            local_update(model, paths[:2], ClientStack(encs), Tier.ROOT, opt=opt,
                         rng=streams(len(encs)))
        with pytest.raises(ConfigurationError):
            local_update(model, paths, ClientStack(encs), Tier.ROOT, opt=opt)

    def test_empty_stack_rejected(self):
        with pytest.raises(PreconditionError):
            ClientStack([])


class TestStackLosses:
    def test_client_loss_does_not_depend_on_stack_mates(self):
        # mates of up to 300 rows widen the padded stack well past 128 rows
        sizes = [5, 1, 33, 64, 45, 129, 150, 200, 257, 300]
        model, encs, paths, _ = stacked_case(6, sizes, Tier.ROOT, 0)
        w = np.stack([compose_path(p, model.w0) for p in paths])
        alone = [_stack_losses(w[s:s + 1], ClientStack(encs[s:s + 1]))[0]
                 for s in range(len(sizes))]
        for s in range(len(sizes)):
            assert alone[s] == dataset_loss(model, paths[s], encs[s])
            for mate in range(s + 1, len(sizes)):
                pair = _stack_losses(w[[s, mate]], ClientStack([encs[s], encs[mate]]))
                assert pair[0] == alone[s] and pair[1] == alone[mate]
        assert np.array_equal(_stack_losses(w, ClientStack(encs)), alone)
