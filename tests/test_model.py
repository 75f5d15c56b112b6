import math

import numpy as np
import pytest

import fedtier.model
from fedtier.datagen import GlDir, gen_pool, partition
from fedtier.errors import ConfigurationError, PreconditionError
from fedtier.federation import FederationConfig, run_protocol
from fedtier.lora import AdapterPath, LoraAdapter, Tier, compose_path, orth_penalty_grad, zero_adapter
from fedtier.model import (ClientStack, FrozenBackbone, HeadModel, Samples, SgdConfig,
                           build_model, dataset_loss, encode, fd_tier_gradient, forward,
                           gradient_check, local_update, objective, tier_gradient,
                           _frozen_logits, _stack_accuracy, _stack_inputs, _stack_losses)
from oracles import accuracy_oracle, loop_matmul, softmax_loss_oracle


def zero_path(p, q, r=1):
    return AdapterPath(root=zero_adapter(p, q, r), cluster=zero_adapter(p, q, r),
                       leaf=zero_adapter(p, q, r))


def make_samples(rng, n, d, c):
    return Samples(rng.normal(size=(n, d)), rng.integers(c, size=n))


class TestBuildModel:
    @pytest.mark.parametrize("sizes, name", [((0, 3, 8), "feature_dim"),
                                             ((4, 0, 8), "class_count"),
                                             ((4, 3, 0), "hidden_dim"),
                                             ((-1, 3, 8), "feature_dim")])
    def test_a_size_that_is_not_positive_names_its_field(self, sizes, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be positive"):
            build_model(*sizes, 0)


class TestEncode:
    def test_rows_of_the_wrong_width_name_both_widths(self, toy_model):
        rows = Samples(np.zeros((3, 5)), [0, 1, 2])
        with pytest.raises(PreconditionError, match="rows have 5 features, the model takes 4"):
            encode(toy_model, rows)

    def test_a_federation_of_the_wrong_width_is_refused_before_training(self, toy_model):
        pool = gen_pool(3, 5, 100, 1.0, seed=2)
        data = partition(pool, GlDir(alpha=1.0), 4, seed=2)
        config = FederationConfig(n_clients=4, rank=1, t_root=1, t_cluster=1, t_leaf=1,
                                  total_budget=3, hidden_dim=6)
        with pytest.raises(PreconditionError, match="rows have 5 features, the model takes 4"):
            run_protocol(config, data, toy_model)

    def test_a_model_of_another_hidden_dim_is_refused(self, toy_model):
        # toy_model is 6 wide; the config's hidden_dim would be silently ignored
        pool = gen_pool(3, 4, 100, 1.0, seed=2)
        data = partition(pool, GlDir(alpha=1.0), 4, seed=2)
        config = FederationConfig(n_clients=4, rank=1, t_root=1, t_cluster=1, t_leaf=1,
                                  total_budget=3, hidden_dim=8)
        with pytest.raises(ConfigurationError, match="model's hidden_dim is 6, the config's 8"):
            run_protocol(config, data, toy_model)


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
        with pytest.raises(PreconditionError, match=r"input has shape \(5,\), the model takes 4"):
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
        # penalty term against the path's own root alone
        model = HeadModel(w0=np.zeros((3, 4)),
                          backbone=FrozenBackbone(m=np.zeros((4, 2)), bias=np.zeros(4)))
        rng = np.random.default_rng(3)
        active = LoraAdapter(b=rng.normal(size=(3, 2)), a=rng.normal(size=(2, 4)), rank=2)
        root = LoraAdapter(b=rng.normal(size=(3, 2)), a=rng.normal(size=(2, 4)), rank=2)
        path = AdapterPath(root=root, cluster=active, leaf=zero_adapter(3, 4, 2))
        data = Samples(np.zeros((2, 2)), [0, 1])
        db, da = tier_gradient(model, path, data, Tier.CLUSTER, (1.0,))
        assert np.allclose(db, orth_penalty_grad(root.b, active.b), atol=1e-15)
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
        gammas = (0.7, 1.3)
        db, da = tier_gradient(toy_model, path, data, Tier.LEAF, gammas)
        fdb, fda = fd_tier_gradient(toy_model, path, data, Tier.LEAF, gammas)
        for g, f in ((db, fdb), (da, fda)):
            assert np.max(np.abs(g - f)) / max(np.max(np.abs(f)), 1e-12) <= 1e-4

    def test_penalty_pair_is_the_paths_earlier_b_factors(self, toy_model):
        # the earlier tiers' B side by side, in cascade order, each the
        # path's own B, and their transposes scaled by 2 gamma
        rng = np.random.default_rng(11)
        path = AdapterPath(*[LoraAdapter(b=rng.normal(size=(3, 2)), a=rng.normal(size=(2, 6)),
                                         rank=2) for _ in Tier])
        for active in Tier:
            gammas = (0.5, 1.5)[:len(active.earlier)]
            inputs = _stack_inputs(toy_model, [path, path], active, gammas)
            width = 2 * len(active.earlier)
            assert inputs.penalty_b.shape == (2, 3, width) and inputs.penalty_b.flags.c_contiguous
            assert inputs.penalty_bt.shape == (2, width, 3)
            assert inputs.penalty_bt.flags.c_contiguous
            for k, (tier, gamma) in enumerate(zip(active.earlier, gammas, strict=True)):
                for side_by_side, scaled in zip(*inputs[3:]):
                    assert np.array_equal(side_by_side[:, 2 * k:2 * k + 2], path.adapter(tier).b)
                    assert np.array_equal(scaled[2 * k:2 * k + 2],
                                          (2.0 * gamma) * path.adapter(tier).b.T)

    @pytest.mark.parametrize("ranks, gammas", [
        ((1, 2), (0.7,)),            # one earlier tier
        ((1, 3, 2), (0.7, 1.3)),     # two earlier tiers of unequal rank
        ((1, 3, 2), (0.0, 1.3)),     # a zero gamma leaves its tier out
        ((3, 1, 2), (0.7, 0.0))])
    def test_penalty_pair_term_is_the_sum_of_the_tiers_penalty_gradients(self, ranks, gammas):
        rng = np.random.default_rng(14)
        c, h = 7, 6
        model = build_model(4, c, h, seed=14)
        active = list(Tier)[len(gammas)]
        paths = [AdapterPath(*[LoraAdapter(b=rng.normal(size=(c, r)), a=rng.normal(size=(r, h)),
                                           rank=r)
                               for r in (ranks + (2,))[:3]]) for _ in range(3)]
        inputs = _stack_inputs(model, paths, active, gammas)
        assert inputs.penalty_b.shape[-1] == sum(r for r, g in zip(ranks, gammas) if g != 0.0)
        term = inputs.penalty_b @ (inputs.penalty_bt @ inputs.b)
        for s, path in enumerate(paths):
            want = sum(gamma * orth_penalty_grad(path.adapter(tier).b, path.adapter(active).b)
                       for tier, gamma in zip(active.earlier, gammas))
            assert np.max(np.abs(term[s] - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("batch_mode", ["full", "mini"])
    def test_zero_gammas_leave_the_pair_empty_and_the_update_unpenalized(self, monkeypatch,
                                                                          batch_mode):
        # the unpenalized update: penalized inputs stepped by a kernel that
        # drops their pair
        model, encs, paths = stacked_case(15, [5, 16, 45])
        opt = SgdConfig(lr=0.2, epochs=2, batch_mode=batch_mode, batch_size=16)
        zero, plain, dropped = (_stack_inputs(model, paths, Tier.LEAF, gammas)
                                for gammas in ((0.0, 0.0), (), (0.5, 1.5)))
        for inputs in (zero, plain):
            assert inputs.penalty_b.shape == (3, 5, 0) and inputs.penalty_bt.shape == (3, 0, 5)
            local_update(model, inputs, ClientStack(encs), Tier.LEAF, opt=opt, rng=streams(3))
        kernel = fedtier.model._stack_gradient
        monkeypatch.setattr(fedtier.model, "_stack_gradient", lambda *args: kernel(
            *args[:6], args[6][..., :0], args[7][:, :0]))
        local_update(model, dropped, ClientStack(encs), Tier.LEAF, opt=opt, rng=streams(3))
        for inputs in (zero, plain):
            assert np.array_equal(inputs.b, dropped.b) and np.array_equal(inputs.a, dropped.a)
        assert not np.array_equal(zero.b, _stack_inputs(model, paths, Tier.LEAF).b)

    def test_mixed_rank_path_trains_at_the_leaf(self, toy_model):
        # a rank-1 root under a rank-2 cluster and leaf: the bases keep each
        # tier's own rank, the gradient matches finite differences and the
        # path form is a stack of one, bitwise, in both batch modes
        rng = np.random.default_rng(12)

        def adapter(r):
            return LoraAdapter(b=rng.normal(size=(3, r)), a=rng.normal(size=(r, 6)), rank=r)

        path = AdapterPath(root=adapter(1), cluster=adapter(2), leaf=adapter(2))
        enc = encode(toy_model, make_samples(rng, 40, 4, 3))
        gammas = (0.5, 1.5)
        inputs = _stack_inputs(toy_model, [path], Tier.LEAF, gammas)
        assert (inputs.penalty_b.shape, inputs.penalty_bt.shape) == ((1, 3, 3), (1, 3, 3))
        db, da = tier_gradient(toy_model, path, enc, Tier.LEAF, gammas)
        fdb, fda = fd_tier_gradient(toy_model, path, enc, Tier.LEAF, gammas)
        for g, f in ((db, fdb), (da, fda)):
            assert np.max(np.abs(g - f)) / max(np.max(np.abs(f)), 1e-12) <= 1e-4
        for batch_mode in ("full", "mini"):
            opt = SgdConfig(lr=0.1, epochs=3, batch_mode=batch_mode, batch_size=16)
            alone = local_update(toy_model, path, enc, Tier.LEAF, gammas, opt=opt,
                                 rng=streams(1)[0])
            stacked = local_update(toy_model, _stack_inputs(toy_model, [path], Tier.LEAF, gammas),
                                   ClientStack([enc]), Tier.LEAF, opt=opt, rng=streams(1))
            assert np.array_equal(stacked.b[0], alone.b) and np.array_equal(stacked.a[0], alone.a)
            assert not np.array_equal(alone.b, path.leaf.b)

    def test_unknown_tier(self, toy_model):
        data = Samples(np.zeros((1, 4)), [0])
        with pytest.raises(ConfigurationError):
            tier_gradient(toy_model, zero_path(3, 6), data, "root")


def cluster_case(toy_model):
    rng = np.random.default_rng(13)
    path = AdapterPath(*[LoraAdapter(b=rng.normal(size=(3, 2)), a=rng.normal(size=(2, 6)),
                                     rank=2) for _ in Tier])
    return path, make_samples(rng, 6, 4, 3)


# every entry point that takes gammas, called at the cluster tier
GAMMA_TAKERS = {
    "_stack_inputs": lambda m, p, d, g: _stack_inputs(m, [p], Tier.CLUSTER, g),
    "tier_gradient": lambda m, p, d, g: tier_gradient(m, p, d, Tier.CLUSTER, g),
    "local_update": lambda m, p, d, g: local_update(m, p, d, Tier.CLUSTER, g,
                                                    opt=SgdConfig(lr=0.1, epochs=1)),
    "objective": lambda m, p, d, g: objective(m, p, d, Tier.CLUSTER, g),
    "fd_tier_gradient": lambda m, p, d, g: fd_tier_gradient(m, p, d, Tier.CLUSTER, g),
}


class TestGammaRule:
    """gammas are none, or one finite, non-negative real per earlier tier."""

    @pytest.mark.parametrize("taker", GAMMA_TAKERS)
    @pytest.mark.parametrize("gammas, match", [
        (["x"], r"gammas\[0\] must be a number"),
        ([True], r"gammas\[0\] must be a number"),
        ([np.nan], r"gammas\[0\] must be finite and non-negative"),
        ([np.inf], r"gammas\[0\] must be finite and non-negative"),
        ([-1.0], r"gammas\[0\] must be finite and non-negative"),
        ([0.5, 0.5], r"cluster tier takes no gammas or one per earlier tier \(1\); got 2")])
    def test_a_bad_gamma_is_refused(self, toy_model, taker, gammas, match):
        path, data = cluster_case(toy_model)
        with pytest.raises(ConfigurationError, match=match):
            GAMMA_TAKERS[taker](toy_model, path, data, gammas)

    def test_the_root_takes_no_gammas(self, toy_model):
        path, data = cluster_case(toy_model)
        with pytest.raises(ConfigurationError, match=r"root tier takes no gammas or one per earlier tier \(0\); got 1"):
            tier_gradient(toy_model, path, data, Tier.ROOT, (1.0,))

    @pytest.mark.parametrize("gammas", [(), (0.0,), (2,), (np.float64(0.5),), [1.5]])
    def test_none_or_one_real_per_earlier_tier_is_taken(self, toy_model, gammas):
        path, data = cluster_case(toy_model)
        for take in GAMMA_TAKERS.values():
            take(toy_model, path, data, gammas)

    @pytest.mark.parametrize("gammas", [(1.0,), (0.0,), [0.5]])
    def test_the_kernel_inputs_form_takes_no_gammas(self, toy_model, gammas):
        # KernelInputs carry the penalty _stack_inputs built from the gammas
        path, data = cluster_case(toy_model)
        inputs = _stack_inputs(toy_model, [path], Tier.CLUSTER, (1.0,))
        with pytest.raises(ConfigurationError, match="KernelInputs carry their penalty"):
            local_update(toy_model, inputs, ClientStack([encode(toy_model, data)]), Tier.CLUSTER,
                         gammas, opt=SgdConfig(lr=0.1, epochs=1))
        assert np.array_equal(inputs.b[0], path.cluster.b)


class TestOldStyleCalls:
    """The penalty bases are no parameter: a call written for the old
    signature, bases before gammas, fails loudly instead of rebinding."""

    def test_positional_opt_is_a_type_error(self, toy_model):
        path, data = cluster_case(toy_model)
        with pytest.raises(TypeError):
            local_update(toy_model, path, data, Tier.CLUSTER, (1.0,), SgdConfig(lr=0.1, epochs=1))

    @pytest.mark.parametrize("call", [
        lambda m, p, d, b: local_update(m, p, d, Tier.CLUSTER, [b], [1.0],
                                        opt=SgdConfig(lr=0.1, epochs=1)),
        lambda m, p, d, b: local_update(m, p, d, Tier.CLUSTER, [b],
                                        opt=SgdConfig(lr=0.1, epochs=1)),
        lambda m, p, d, b: tier_gradient(m, p, d, Tier.CLUSTER, [b], [1.0]),
        lambda m, p, d, b: tier_gradient(m, p, d, Tier.CLUSTER, [b]),
        lambda m, p, d, b: objective(m, p, d, Tier.CLUSTER, [b], [1.0]),
        lambda m, p, d, b: fd_tier_gradient(m, p, d, Tier.CLUSTER, [b], [1.0]),   # [1.0] was h
        lambda m, p, d, b: fd_tier_gradient(m, p, d, Tier.CLUSTER, [b])])
    def test_bases_passed_as_before_are_refused(self, toy_model, call):
        path, data = cluster_case(toy_model)
        with pytest.raises((TypeError, ConfigurationError)):
            call(toy_model, path, data, path.root.b)


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
        local_update(toy_model, path, data, Tier.CLUSTER, (1.0,),
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


def stacked_case(seed, sizes, c=5, h=7, d=4, r=2):
    """A model, per-client encodings of the given sizes and per-client paths,
    all drawn from one seed; a path's earlier tiers are its penalty bases."""
    rng = np.random.default_rng(seed)
    model = build_model(d, c, h, seed=seed)
    encs = [encode(model, make_samples(rng, n, d, c)) for n in sizes]

    def rand_adapter():
        return LoraAdapter(b=0.3 * rng.normal(size=(c, r)),
                           a=0.3 * rng.normal(size=(r, h)), rank=r)

    paths = [AdapterPath(root=rand_adapter(), cluster=rand_adapter(), leaf=rand_adapter())
             for _ in sizes]
    return model, encs, paths


def streams(count, seed=0):
    return [np.random.default_rng([seed, i]) for i in range(count)]


class TestStackedLocalUpdate:
    # sizes below, at and above the batch size, and not multiples of it
    SIZES = [5, 16, 45, 33, 1]

    def test_len_counts_real_rows(self):
        _, encs, _ = stacked_case(0, self.SIZES)
        stack = ClientStack(encs)
        assert len(stack) == sum(self.SIZES)
        assert len(stack[1:3]) == 16 + 45

    @pytest.mark.parametrize("batch_mode", ["full", "mini"])
    @pytest.mark.parametrize("active,gammas", [(Tier.ROOT, ()), (Tier.CLUSTER, (0.7,)),
                                               (Tier.LEAF, (1.3, 0.0))])
    def test_client_bits_do_not_depend_on_stack_or_chunking(self, batch_mode, active, gammas):
        # the chunks are sliced as the stage engine slices its stack
        model, encs, paths = stacked_case(1, self.SIZES)
        opt = SgdConfig(lr=0.2, epochs=3, batch_mode=batch_mode, batch_size=16)
        n, stack = len(encs), ClientStack(encs)
        alone = [local_update(model, paths[s], encs[s], active, gammas, opt=opt,
                              rng=streams(n)[s])
                 for s in range(n)]
        whole = _stack_inputs(model, paths, active, gammas)
        assert local_update(model, whole, stack, active, opt=opt, rng=streams(n)) is whole
        for cut in range(1, n):
            local, rngs = _stack_inputs(model, paths, active, gammas), streams(n)
            for part in (slice(0, cut), slice(cut, n)):
                local_update(model, local.select(part), stack[part], active, opt=opt,
                             rng=rngs[part])
            for s, ref in enumerate(alone):
                assert np.array_equal(local.b[s], ref.b) and np.array_equal(local.a[s], ref.a)
        for s, (ref, path) in enumerate(zip(alone, paths)):
            assert np.array_equal(whole.b[s], ref.b) and np.array_equal(whole.a[s], ref.a)
            assert not np.array_equal(whole.b[s], path.adapter(active).b)

    @pytest.mark.parametrize("batch_mode", ["full", "mini"])
    @pytest.mark.parametrize("active", [Tier.CLUSTER, Tier.LEAF])
    def test_a_zero_gamma_is_bitwise_no_penalty(self, batch_mode, active):
        # zero gammas train bitwise as no gammas do; a nonzero one moves bits
        model, encs, paths = stacked_case(2, self.SIZES)
        opt = SgdConfig(lr=0.2, epochs=2, batch_mode=batch_mode, batch_size=16)
        n = len(active.earlier)
        zero, plain, penalized = (_stack_inputs(model, paths, active, gammas)
                                  for gammas in ((0.0,) * n, (), (0.7,) * n))
        for local in (zero, plain, penalized):
            local_update(model, local, ClientStack(encs), active, opt=opt, rng=streams(len(encs)))
        assert np.array_equal(zero.b, plain.b) and np.array_equal(zero.a, plain.a)
        assert not np.array_equal(penalized.b, plain.b)

    def test_full_batch_sums_blocks_to_the_full_gradient(self):
        # one full-batch epoch over several blocks is one step along the
        # gradient of the mean loss over all rows
        model, encs, paths = stacked_case(3, [45])
        db, da = tier_gradient(model, paths[0], encs[0], Tier.LEAF, (0.5, 1.5))
        fdb, fda = fd_tier_gradient(model, paths[0], encs[0], Tier.LEAF, (0.5, 1.5))
        for g, f in ((db, fdb), (da, fda)):
            assert np.max(np.abs(g - f)) / max(np.max(np.abs(f)), 1e-12) <= 1e-4
        out = local_update(model, paths[0], encs[0], Tier.LEAF, (0.5, 1.5),
                           opt=SgdConfig(lr=0.1, epochs=1, batch_size=16))
        assert np.allclose(out.b, paths[0].leaf.b - 0.1 * db, rtol=0, atol=1e-14)

    def test_full_batch_epochs_are_tier_gradient_steps(self):
        # clients of 1, 2 and 3 blocks share one full-batch span; each epoch
        # is bitwise one step along that client's own tier gradient
        sizes, gammas, lr = [20, 45, 80], (0.5, 1.5), 0.1
        model, encs, paths = stacked_case(5, sizes)
        out = _stack_inputs(model, paths, Tier.LEAF, gammas)
        local_update(model, out, ClientStack(encs), Tier.LEAF,
                     opt=SgdConfig(lr=lr, epochs=3, batch_size=32))
        for s, (enc, path) in enumerate(zip(encs, paths)):
            for _ in range(3):
                db, da = tier_gradient(model, path, enc, Tier.LEAF, gammas)
                path = path.replace(Tier.LEAF, LoraAdapter(b=path.leaf.b - lr * db,
                                                           a=path.leaf.a - lr * da, rank=2))
            assert np.array_equal(out.b[s], path.leaf.b)
            assert np.array_equal(out.a[s], path.leaf.a)

    @pytest.mark.parametrize("batch_mode", ["full", "mini"])
    def test_given_frozen_logits_change_no_bit(self, batch_mode):
        # the stage engine and the fine-tune pass the frozen logits they
        # computed once; a call without them computes its own from the
        # layout, in either batch mode
        model, encs, paths = stacked_case(8, self.SIZES)
        opt = SgdConfig(lr=0.2, epochs=3, batch_mode=batch_mode, batch_size=16)
        gammas, stack = (0.5, 1.5), ClientStack(encs)
        own, given = (_stack_inputs(model, paths, Tier.LEAF, gammas) for _ in range(2))
        local_update(model, own, stack, Tier.LEAF, opt=opt, rng=streams(len(encs)))
        logits = _frozen_logits(given.frozen, stack.layout(16)[0])
        local_update(model, given, stack, Tier.LEAF, opt=opt, rng=streams(len(encs)),
                     frozen_logits=logits)
        assert np.array_equal(own.b, given.b) and np.array_equal(own.a, given.a)
        assert not np.array_equal(own.b, _stack_inputs(model, paths, Tier.LEAF).b)

    @pytest.mark.parametrize("batch_mode", ["full", "mini"])
    @pytest.mark.parametrize("cut", [lambda logits: logits[:, :, :-1],   # one block short
                                     lambda logits: logits[:, 1:],       # one client short
                                     lambda logits: logits[1:]],         # one class short
                             ids=["block", "client", "class"])
    def test_frozen_logits_of_another_shape_are_refused(self, batch_mode, cut):
        model, encs, paths = stacked_case(9, self.SIZES)
        opt = SgdConfig(lr=0.1, epochs=1, batch_mode=batch_mode, batch_size=16)
        local, stack = _stack_inputs(model, paths, Tier.ROOT), ClientStack(encs)
        logits = cut(_frozen_logits(local.frozen, stack.layout(16)[0]))
        with pytest.raises(ConfigurationError, match="frozen_logits"):
            local_update(model, local, stack, Tier.ROOT, opt=opt, rng=streams(len(encs)),
                         frozen_logits=logits)

    @pytest.mark.parametrize("given, calls", [(True, 0), (False, 1)])
    def test_a_mini_batch_call_computes_its_frozen_logits_at_most_once(self, monkeypatch,
                                                                       given, calls):
        # 3 epochs over 3 blocks are 9 steps; each reads the logits gathered
        # with its rows, none computes its own, and a call given none
        # computes them once over the whole layout
        model, encs, paths = stacked_case(10, self.SIZES)
        opt = SgdConfig(lr=0.1, epochs=3, batch_mode="mini", batch_size=16)
        local, stack = _stack_inputs(model, paths, Tier.LEAF, (0.5, 1.5)), ClientStack(encs)
        assert stack.layout(16)[0].shape[1] == 3
        logits = _frozen_logits(local.frozen, stack.layout(16)[0]) if given else None
        seen = []

        def counted(w, z):
            seen.append(z.shape)
            return _frozen_logits(w, z)

        monkeypatch.setattr(fedtier.model, "_frozen_logits", counted)
        local_update(model, local, stack, Tier.LEAF, opt=opt, rng=streams(len(encs)),
                     frozen_logits=logits)
        assert seen == [stack.layout(16)[0].shape] * calls

    def test_stack_needs_one_path_and_rng_per_client(self):
        model, encs, paths = stacked_case(4, self.SIZES)
        opt = SgdConfig(lr=0.1, epochs=1, batch_mode="mini")
        with pytest.raises(ConfigurationError, match="one input, basis and rng per client"):
            local_update(model, _stack_inputs(model, paths[:2], Tier.ROOT), ClientStack(encs),
                         Tier.ROOT, opt=opt, rng=streams(len(encs)))
        with pytest.raises(ConfigurationError, match="needs an rng"):
            local_update(model, _stack_inputs(model, paths, Tier.ROOT), ClientStack(encs),
                         Tier.ROOT, opt=opt)

    @pytest.mark.parametrize("batch_mode", ["full", "mini"])
    def test_one_path_takes_a_one_client_stack(self, batch_mode):
        # one AdapterPath is one client, whether its rows come encoded or
        # already packed in a stack of one
        model, encs, paths = stacked_case(6, [45])
        opt = SgdConfig(lr=0.2, epochs=3, batch_mode=batch_mode, batch_size=16)
        alone, stacked = (local_update(model, paths[0], data, Tier.LEAF, (0.5, 1.5),
                                       opt=opt, rng=streams(1)[0])
                          for data in (encs[0], ClientStack(encs)))
        assert isinstance(stacked, LoraAdapter)
        assert np.array_equal(stacked.b, alone.b) and np.array_equal(stacked.a, alone.a)

    def test_paths_must_match_the_data(self):
        model, encs, paths = stacked_case(7, [5, 16])
        opt = SgdConfig(lr=0.1, epochs=1)
        with pytest.raises(ConfigurationError, match="ClientStack"):
            local_update(model, _stack_inputs(model, paths[:1], Tier.ROOT), encs[0], Tier.ROOT,
                         opt=opt)
        with pytest.raises(ConfigurationError, match="stack of 2"):
            local_update(model, paths[0], ClientStack(encs), Tier.ROOT, opt=opt)

    def test_a_list_of_paths_is_refused(self):
        # the two call forms are one path and the stage engine's KernelInputs
        model, encs, paths = stacked_case(8, [5, 16])
        with pytest.raises(ConfigurationError, match="one AdapterPath, or KernelInputs"):
            local_update(model, paths, ClientStack(encs), Tier.ROOT,
                         opt=SgdConfig(lr=0.1, epochs=1))

    def test_empty_stack_rejected(self):
        with pytest.raises(PreconditionError):
            ClientStack([])


class TestStackLosses:
    def test_client_loss_does_not_depend_on_stack_mates(self):
        # mates of up to 300 rows widen the padded stack well past 128 rows
        sizes = [5, 1, 33, 64, 45, 129, 150, 200, 257, 300]
        model, encs, paths = stacked_case(6, sizes)
        w = np.stack([compose_path(p, model.w0) for p in paths])
        alone = [_stack_losses(w[s:s + 1], ClientStack(encs[s:s + 1]))[0]
                 for s in range(len(sizes))]
        for s in range(len(sizes)):
            assert alone[s] == dataset_loss(model, paths[s], encs[s])
            for mate in range(s + 1, len(sizes)):
                pair = _stack_losses(w[[s, mate]], ClientStack([encs[s], encs[mate]]))
                assert pair[0] == alone[s] and pair[1] == alone[mate]
        assert np.array_equal(_stack_losses(w, ClientStack(encs)), alone)


class TestStackAccuracy:
    # mates of up to 300 rows widen the padded stack well past 128 rows
    SIZES = [5, 1, 33, 64, 45, 129, 150, 200, 257, 300]

    def test_client_accuracy_does_not_depend_on_stack_mates(self):
        model, encs, paths = stacked_case(7, self.SIZES)
        w = np.stack([compose_path(p, model.w0) for p in paths])
        alone = [_stack_accuracy(w[s:s + 1], ClientStack(encs[s:s + 1]))[0]
                 for s in range(len(self.SIZES))]
        for s in range(len(self.SIZES)):
            for mate in range(s + 1, len(self.SIZES)):
                pair = _stack_accuracy(w[[s, mate]], ClientStack([encs[s], encs[mate]]))
                assert pair[0] == alone[s] and pair[1] == alone[mate]
        assert np.array_equal(_stack_accuracy(w, ClientStack(encs)), alone)

    def test_matches_the_argmax_oracle(self):
        model, encs, paths = stacked_case(8, self.SIZES)
        w = np.stack([compose_path(p, model.w0) for p in paths])
        got = _stack_accuracy(w, ClientStack(encs))
        assert got.tolist() == [accuracy_oracle(e.z, e.y, w[s]) for s, e in enumerate(encs)]

    def test_padding_rows_never_count_as_hits(self):
        # every padding row is zero, so all its logits tie and it "predicts"
        # class 0; with every label 0 only the real rows may count
        model = HeadModel(w0=np.zeros((3, 2)),
                          backbone=FrozenBackbone(m=np.eye(2), bias=np.zeros(2)))
        encs = [encode(model, Samples(np.ones((n, 2)), np.zeros(n))) for n in (1, 40)]
        w = np.zeros((2, 3, 2))
        assert _stack_accuracy(w, ClientStack(encs)).tolist() == [1.0, 1.0]

    def test_a_stack_of_several_clients_is_not_one_clients_data(self):
        model, encs, paths = stacked_case(9, [4, 6])
        with pytest.raises(ConfigurationError, match="one client"):
            dataset_loss(model, paths[0], ClientStack(encs))
