import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fedtier.federation
from fedtier.adaptation import adapt_unseen
from fedtier.clustering import BasisTracker, cluster_clients
from fedtier.datagen import ClientSplit, FederationData, gen_pool
from fedtier.errors import ConfigurationError, PreconditionError
from fedtier.federation import (FederationConfig, ServerState, TrainedFederation,
                                aggregate_product, aggregate_separate, refactor,
                                run_cluster_stage, run_leaf_stage, run_protocol,
                                run_root_stage, stop_check, weights_cluster, weights_root)
from fedtier.linalg import frobenius_norm
from fedtier.lora import (AdapterPath, LoraAdapter, Tier, delta, init_adapter,
                          zero_adapter)
from fedtier.metrics import accuracy
from fedtier.model import (ClientStack, KernelInputs, SgdConfig, build_model, dataset_loss,
                           gradient_check, local_update)
from fedtier.streams import stream
from oracles import best_rank_k


def small_config(**overrides):
    base = dict(n_clients=3, rank=2, t_root=5, t_cluster=4, t_leaf=3, total_budget=12,
                lr=0.05, batch_mode="full", master_seed=7, hidden_dim=12,
                gamma_c=1.0, gamma_l=1.0)
    base.update(overrides)
    return FederationConfig(**base)


def tiny_federation(n_clients, seed=0, classes=4, dim=4, separation=4.0):
    pool = gen_pool(classes, dim, 60, separation, seed=seed)
    per = len(pool.samples) // n_clients
    clients = []
    for i in range(n_clients):
        chunk = pool.samples[i * per:(i + 1) * per]
        clients.append(ClientSplit(train=chunk[: int(0.8 * per)],
                                   test=chunk[int(0.8 * per):]))
    return FederationData(clients=clients, class_count=classes, feature_dim=dim)


def cloned_federation(n_clients, seed=0, classes=4, dim=4, separation=4.0):
    """Every client holds the same data (shared arrays are fine: reads only)."""
    base = tiny_federation(1, seed=seed, classes=classes, dim=dim, separation=separation)
    split = base.clients[0]
    clients = [ClientSplit(train=split.train, test=split.test) for _ in range(n_clients)]
    return FederationData(clients=clients, class_count=classes, feature_dim=dim)


def uneven_federation(seed=12):
    """Four clients with 20, 35, 50 and 28 train rows and one unseen client
    with 30, each with 10 test rows, drawn from one shuffled pool."""
    pool = gen_pool(4, 4, 60, 4.0, seed=seed)
    samples = pool.samples[np.random.default_rng(seed).permutation(len(pool.samples))]
    splits, start = [], 0
    for n_train in (20, 35, 50, 28, 30):
        splits.append(ClientSplit(train=samples[start:start + n_train],
                                  test=samples[start + n_train:start + n_train + 10]))
        start += n_train + 10
    return FederationData(clients=splits[:4], unseen=splits[4:], class_count=4, feature_dim=4)


def rank1_adapter(p, q, i, j):
    b = np.zeros((p, 1))
    b[i, 0] = 1.0
    a = np.zeros((1, q))
    a[0, j] = 1.0
    return LoraAdapter(b=b, a=a, rank=1)


class TestWeights:
    def test_equal_sizes(self):
        assert np.array_equal(weights_root([5, 5, 5, 5]), [0.25] * 4)

    def test_proportional(self):
        assert np.array_equal(weights_root([1, 3]), [0.25, 0.75])

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        w = weights_root(rng.integers(1, 100, size=9))
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            weights_root([3, 0])

    def test_cluster_singleton(self):
        assert np.array_equal(weights_cluster([10, 20, 30], [1]), [1.0])

    def test_cluster_equal_pair(self):
        assert np.array_equal(weights_cluster([2, 2, 9], [0, 1]), [0.5, 0.5])

    def test_cluster_three_members(self):
        w = weights_cluster([1, 2, 3], [0, 1, 2])
        assert np.allclose(w, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)


class TestAggregateProduct:
    def test_single_client_identity(self):
        rng = np.random.default_rng(1)
        ad = LoraAdapter(b=rng.normal(size=(3, 2)), a=rng.normal(size=(2, 4)), rank=2)
        assert np.array_equal(aggregate_product([ad], [1.0]), ad.b @ ad.a)

    def test_identical_adapters(self):
        rng = np.random.default_rng(2)
        ad = LoraAdapter(b=rng.normal(size=(3, 1)), a=rng.normal(size=(1, 4)), rank=1)
        agg = aggregate_product([ad, ad.copy()], [0.5, 0.5])
        assert np.allclose(agg, ad.b @ ad.a, atol=1e-15)

    def test_hand_computed_mixture(self):
        a1 = rank1_adapter(2, 2, 0, 0)
        a2 = rank1_adapter(2, 2, 1, 1)
        agg = aggregate_product([a1, a2], [0.5, 0.5])
        assert np.array_equal(agg, np.diag([0.5, 0.5]))

    def test_weight_validation(self):
        a1 = rank1_adapter(2, 2, 0, 0)
        with pytest.raises(ConfigurationError):
            aggregate_product([a1], [0.7])
        with pytest.raises(ConfigurationError):
            aggregate_product([a1, rank1_adapter(3, 2, 0, 0)], [0.5, 0.5])


class TestAggregateSeparate:
    def test_identical_adapters_agree_with_product(self):
        rng = np.random.default_rng(3)
        ad = LoraAdapter(b=rng.normal(size=(4, 2)), a=rng.normal(size=(2, 3)), rank=2)
        sep = aggregate_separate([ad, ad.copy()], [0.5, 0.5])
        assert np.allclose(delta(sep), aggregate_product([ad, ad.copy()], [0.5, 0.5]),
                           atol=1e-15)

    def test_cross_term_gap_is_half(self):
        # orthogonal rank-1 pair: averaging factors separately loses mass
        a1 = rank1_adapter(2, 2, 0, 0)
        a2 = rank1_adapter(2, 2, 1, 1)
        product = aggregate_product([a1, a2], [0.5, 0.5])
        sep = delta(aggregate_separate([a1, a2], [0.5, 0.5]))
        expected_sep = 0.25 * np.ones((2, 2))
        assert np.array_equal(sep, expected_sep)
        assert frobenius_norm(product - sep) == pytest.approx(0.5, abs=1e-12)

    def test_zero_adapters(self):
        z = zero_adapter(2, 3, 1)
        assert np.array_equal(delta(aggregate_separate([z, z], [0.5, 0.5])),
                              np.zeros((2, 3)))


class TestRefactor:
    def test_low_rank_input_reproduced(self):
        rng = np.random.default_rng(4)
        low = rng.normal(size=(5, 2)) @ rng.normal(size=(2, 6))
        ad = refactor(low, 3)
        assert frobenius_norm(delta(ad) - low) <= 1e-10

    def test_diagonal_truncation(self):
        ad = refactor(np.diag([3.0, 1.0]), 1)
        assert np.allclose(delta(ad), np.diag([3.0, 0.0]), atol=1e-12)

    def test_error_matches_full_svd_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 5))
        ad = refactor(m, 2)
        oracle = best_rank_k(m, 2)
        assert frobenius_norm(delta(ad) - oracle) <= 1e-8
        assert frobenius_norm(m - delta(ad)) == pytest.approx(
            frobenius_norm(m - oracle), abs=1e-9)

    def test_b_has_orthonormal_columns(self):
        rng = np.random.default_rng(6)
        ad = refactor(rng.normal(size=(4, 7)), 3)
        assert frobenius_norm(ad.b.T @ ad.b - np.eye(3)) <= 1e-10


class TestStopCheck:
    def test_no_movement_stops(self):
        m = np.ones((2, 2))
        stop, rho = stop_check(m, m.copy(), tau_rel=1e-3, eps=1e-8)
        assert stop and rho == 0.0

    def test_doubling_does_not_stop(self):
        m = np.ones((2, 2))
        stop, rho = stop_check(m, 2 * m, tau_rel=1e-3, eps=1e-8)
        assert not stop
        assert rho == pytest.approx(1.0, rel=1e-6)

    def test_stabilizer_guards_zero_denominator(self):
        prev = np.zeros((2, 2))
        new = np.zeros((2, 2))
        new[0, 0] = 1e-8  # frobenius norm equals eps
        stop, rho = stop_check(prev, new, tau_rel=1e-3, eps=1e-8)
        assert rho == pytest.approx(1.0, rel=1e-12)
        assert not stop

    def test_deltas_of_two_shapes_are_refused(self):
        with pytest.raises(ConfigurationError, match=r"\(2, 2\) and \(3, 3\)"):
            stop_check(np.zeros((2, 2)), np.zeros((3, 3)), 1e-3, 1e-8)


class TestCheckRound:
    """The round check refuses local factors that are non-finite or whose
    norms multiply past _FACTOR_BOUND, and warns nowhere."""

    BOUND = fedtier.federation._FACTOR_BOUND

    def check(self, b_entry, a_entry):
        """_check_round on two clients: a healthy one, then one whose b and a
        hold one nonzero entry each, so ||B||_F ||A||_F is their product."""
        b, a = np.full((2, 3, 2), 0.5), np.full((2, 2, 4), 0.5)
        b[1], a[1] = 0.0, 0.0
        b[1, 2, 1], a[1, 0, 3] = b_entry, a_entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fedtier.federation._check_round(small_config(lr=0.25), Tier.CLUSTER, 7,
                                            KernelInputs(np.zeros((2, 3, 4)), b, a,
                                                         np.zeros((2, 3, 2)),
                                                         np.zeros((2, 2, 3))))

    @pytest.mark.parametrize("b_entry, a_entry", [
        (np.nan, 1.0), (1.0, np.inf), (0.0, np.inf), (1.0, -np.inf),
        (2.0 ** 60, BOUND / 2.0 ** 60 * (1 + 1e-12)), (BOUND * (1 + 1e-12), 1.0),
        (1e200, 1e200), (1e200, 0.0)])   # the last: ||B||_F squared overflows
    def test_refuses_non_finite_factors_and_a_product_over_the_bound(self, b_entry, a_entry):
        with pytest.raises(ConfigurationError, match=r"the cluster stage diverged in round 7: "
                                                     r".*lower lr \(now 0\.25\)"):
            self.check(b_entry, a_entry)

    @pytest.mark.parametrize("b_entry, a_entry", [
        (2.0 ** 60, BOUND / 2.0 ** 60 * (1 - 1e-12)), (BOUND * (1 - 1e-12), 1.0),
        (1e150, 1e-150), (0.0, 0.0), (-3.0, 7.0)])
    def test_accepts_a_product_under_the_bound(self, b_entry, a_entry):
        self.check(b_entry, a_entry)


class TestRootStage:
    def test_single_client_matches_manual_loop(self):
        data = tiny_federation(1, seed=1)
        config = small_config(n_clients=1)
        model = build_model(4, 4, config.hidden_dim, config.master_seed)
        tracker = BasisTracker(config.ema_decay)
        root, report = run_root_stage(config, data, model, tracker)

        # manual reimplementation of the round loop for one client
        p, q = 4, config.hidden_dim
        server = init_adapter(p, q, config.rank, stream(config.master_seed, "root_init"))
        shuffle = stream(config.master_seed, "root_shuffle", 0)
        prev = delta(server)
        for rnd in range(1, config.t_root + 1):
            path = AdapterPath(root=server, cluster=zero_adapter(p, q, config.rank),
                               leaf=zero_adapter(p, q, config.rank))
            local = local_update(model, path, data.clients[0].train, Tier.ROOT,
                                 opt=config.sgd(), rng=shuffle)
            agg = delta(local) * 1.0
            server = refactor(agg, config.rank)
            stop, _ = stop_check(prev, agg, config.tau_rel, config.eps)
            prev = agg
            if stop:
                break
        assert np.array_equal(root.b, server.b)
        assert np.array_equal(root.a, server.a)
        assert report.rounds <= config.t_root

    def test_identical_clients_match_single_client_run(self):
        data3 = cloned_federation(3, seed=2)
        data1 = FederationData(clients=[data3.clients[0]], class_count=4, feature_dim=4)
        model = build_model(4, 4, 12, 7)
        cfg3 = small_config(n_clients=3)
        cfg1 = small_config(n_clients=1)
        root3, _ = run_root_stage(cfg3, data3, model, BasisTracker(0.9))
        root1, _ = run_root_stage(cfg1, data1, model, BasisTracker(0.9))
        assert np.allclose(delta(root3), delta(root1), atol=1e-9)

    def test_tracker_collects_every_client(self):
        data = tiny_federation(3, seed=3)
        config = small_config()
        model = build_model(4, 4, config.hidden_dim, config.master_seed)
        tracker = BasisTracker(config.ema_decay)
        run_root_stage(config, data, model, tracker)
        assert sorted(tracker.bases) == [0, 1, 2]
        for b in tracker.bases.values():
            assert frobenius_norm(b) == pytest.approx(1.0, abs=1e-10)

    def test_relative_stop_fires_before_budget(self):
        # overlapping classes give a finite optimum, so rho decays geometrically
        data = cloned_federation(2, seed=4, classes=4, dim=4, separation=0.3)
        config = small_config(n_clients=2, rank=4, t_root=300, t_cluster=0, t_leaf=0,
                              total_budget=300, tau_rel=1e-3, lr=1.0, local_epochs=2,
                              hidden_dim=4)
        model = build_model(4, 4, config.hidden_dim, config.master_seed)
        root, report = run_root_stage(config, data, model, BasisTracker(0.9))
        assert report.stop_reason == "criterion"
        assert report.rounds < 300
        assert report.rho[-1] <= 1e-3
        assert all(r >= 0 for r in report.rho)


class TestClusterStage:
    def test_singleton_cluster_matches_manual_loop(self, trained_fed):
        # reuse the trained root; run a fresh cluster stage over a singleton
        fed = trained_fed
        config = fed.config
        model = fed.model
        root_star = fed.server.root
        assignment = fed.server.assignment

        sub_members = assignment.members(0)[:1]
        # fabricate an assignment where cluster 0 holds exactly one client
        import dataclasses
        labels = np.full(config.n_clients, 1, dtype=np.int64)
        labels[sub_members[0]] = 0
        small_assignment = dataclasses.replace(assignment, labels=labels, k_star=2)
        clusters, reports = run_cluster_stage(config, fed.data, model,
                                              small_assignment, root_star)
        member = sub_members[0]
        p, q = model.class_count, model.backbone.hidden_dim
        server = init_adapter(p, q, config.rank, stream(config.master_seed, "cluster_init", 0))
        shuffle = stream(config.master_seed, "cluster_shuffle", member)
        prev = delta(server)
        for rnd in range(1, config.t_cluster + 1):
            path = AdapterPath(root=root_star, cluster=server,
                               leaf=zero_adapter(p, q, config.rank))
            local = local_update(model, path, fed.data.clients[member].train,
                                 Tier.CLUSTER, (config.gamma_c,), opt=config.sgd(), rng=shuffle)
            agg = delta(local) * 1.0
            server = refactor(agg, config.rank)
            stop, _ = stop_check(prev, agg, config.tau_rel, config.eps)
            prev = agg
            if stop:
                break
        assert np.array_equal(clusters[0].b, server.b)
        assert np.array_equal(clusters[0].a, server.a)

    def test_root_frozen_bitwise_through_cluster_stage(self, trained_fed):
        fed = trained_fed
        root_b = fed.server.root.b.copy()
        root_a = fed.server.root.a.copy()
        run_cluster_stage(fed.config, fed.data, fed.model, fed.server.assignment,
                          fed.server.root)
        assert np.array_equal(fed.server.root.b, root_b)
        assert np.array_equal(fed.server.root.a, root_a)

    def test_last_weighted_loss_includes_the_frozen_root(self, trained_fed):
        fed = trained_fed
        p, q = fed.model.class_count, fed.model.backbone.hidden_dim
        zero = zero_adapter(p, q, fed.config.rank)
        clusters, reports = run_cluster_stage(fed.config, fed.data, fed.model,
                                              fed.server.assignment, fed.server.root)
        for report in reports:
            j = report.cluster
            members = fed.server.assignment.members(j)
            weights = weights_cluster(fed.data.train_sizes, members)

            def direct(root):
                path = AdapterPath(root=root, cluster=clusters[j], leaf=zero)
                return sum(w * dataset_loss(fed.model, path, fed.data.clients[i].train)
                           for w, i in zip(weights, members))

            assert report.weighted_loss[-1] == pytest.approx(direct(fed.server.root),
                                                             rel=1e-12)
            assert report.weighted_loss[-1] != pytest.approx(direct(zero), rel=1e-6)

    def test_cluster_stage_leaves_the_tracker_untouched(self, trained_fed):
        fed = trained_fed
        before = {i: b.copy() for i, b in fed.tracker.bases.items()}
        run_cluster_stage(fed.config, fed.data, fed.model, fed.server.assignment,
                          fed.server.root)
        assert sorted(fed.tracker.bases) == sorted(before)
        for i, b in before.items():
            assert np.array_equal(fed.tracker.bases[i], b)

    def test_penalty_pushes_cluster_bases_off_the_root(self, clustershift_data):
        # paired runs, same seed: strong penalty keeps the root/cluster overlap
        # tiny, no penalty leaves it clearly larger
        from fedtier.metrics import orthogonality_report
        overlaps = {}
        for gamma in (10.0, 0.0):
            config = FederationConfig(n_clients=30, rank=2, t_root=10, t_cluster=10,
                                      t_leaf=5, total_budget=25, lr=0.05,
                                      batch_mode="full", master_seed=2,
                                      gamma_c=gamma, gamma_l=gamma, hidden_dim=32)
            fed = run_protocol(config, clustershift_data)
            overlaps[gamma] = orthogonality_report(fed).pairs["root_cluster"].mean
        assert overlaps[10.0] <= 0.05
        assert overlaps[0.0] > 0.05


class TestLeafStage:
    def test_perfectly_fit_client_keeps_leaf_near_zero(self):
        # one client, ample budget: after root training fits the data, the leaf
        # has nothing to learn and stays near zero
        data = tiny_federation(1, seed=5)
        config = small_config(n_clients=1, t_root=30, t_cluster=0, t_leaf=10,
                              total_budget=40, tau_rel=1e-5)
        model = build_model(4, 4, config.hidden_dim, config.master_seed)
        fed = run_protocol(config, data, model)
        leaf = fed.leaves[0]
        assert frobenius_norm(delta(leaf)) <= 1e-3

    def test_no_penalties_reduces_to_plain_fine_tuning(self, trained_fed):
        fed = trained_fed
        config = FederationConfig(**{**{f: getattr(fed.config, f) for f in
                                        fed.config.__dataclass_fields__},
                                     "gamma_c": 0.0, "gamma_l": 0.0})
        frozen_before = {j: (ad.b.copy(), ad.a.copy())
                         for j, ad in fed.server.clusters.items()}
        leaves, _ = run_leaf_stage(config, fed.data, fed.model, fed.server.root,
                                   fed.server.clusters, fed.server.assignment)
        for j, (b, a) in frozen_before.items():
            assert np.array_equal(fed.server.clusters[j].b, b)
            assert np.array_equal(fed.server.clusters[j].a, a)
        i = 0
        j = int(fed.server.assignment.labels[i])
        p, q = fed.model.class_count, fed.model.backbone.hidden_dim
        leaf = init_adapter(p, q, config.rank, stream(config.master_seed, "leaf_init", i))
        shuffle = stream(config.master_seed, "leaf_shuffle", i)
        prev = delta(leaf)
        opt = SgdConfig(lr=config.lr, epochs=1, batch_mode=config.batch_mode,
                        batch_size=config.batch_size)
        for e in range(1, config.t_leaf + 1):
            path = AdapterPath(root=fed.server.root, cluster=fed.server.clusters[j],
                               leaf=leaf)
            leaf = local_update(fed.model, path, fed.data.clients[i].train, Tier.LEAF,
                                opt=opt, rng=shuffle)
            new = delta(leaf)
            stop, _ = stop_check(prev, new, config.tau_rel, config.eps)
            prev = new
            if stop:
                break
        assert np.array_equal(leaves[i].b, leaf.b)
        assert np.array_equal(leaves[i].a, leaf.a)


class TestRunProtocol:
    def test_root_only_budgets(self):
        data = tiny_federation(4, seed=6)
        config = small_config(n_clients=4, t_cluster=0, t_leaf=0,
                              t_root=5, total_budget=5)
        fed = run_protocol(config, data)
        for i in range(config.n_clients):
            assert frobenius_norm(delta(fed.path_full(i).cluster)) == 0.0
            assert frobenius_norm(delta(fed.path_full(i).leaf)) == 0.0
        assert fed.rounds_executed <= 5

    def test_identical_clients_get_identical_accuracy(self):
        data = cloned_federation(4, seed=7)
        config = small_config(n_clients=4, t_root=4, t_cluster=3, t_leaf=2,
                              total_budget=9)
        fed = run_protocol(config, data)
        accs = [accuracy(fed.model, fed.path_full(i), fed.data.clients[i].test)
                for i in range(4)]
        assert max(accs) - min(accs) <= 1e-9

    @pytest.mark.parametrize("master_seed", range(8))
    def test_identical_clients_form_one_degenerate_cluster(self, master_seed):
        # identical bases sit rounding noise apart (sigma ~1e-16), never a split
        config = small_config(n_clients=4, t_root=4, t_cluster=3, t_leaf=2,
                              total_budget=9, master_seed=master_seed)
        for data_seed in range(8):
            data = cloned_federation(4, seed=data_seed)
            model = build_model(4, 4, config.hidden_dim, master_seed)
            tracker = BasisTracker(config.ema_decay)
            run_root_stage(config, data, model, tracker)
            assignment = cluster_clients(tracker, config.k_min, config.k_max,
                                         seed=master_seed, expected_clients=4)
            assert assignment.degenerate
            assert assignment.labels.tolist() == [0, 0, 0, 0]

    def test_budget_accounting(self, trained_fed):
        cfg = trained_fed.config
        assert trained_fed.rounds_executed <= cfg.t_root + cfg.t_cluster + cfg.t_leaf

    def test_worker_count_does_not_change_results(self):
        data = tiny_federation(4, seed=8)
        config = small_config(n_clients=4, t_root=4, t_cluster=3, t_leaf=2,
                              total_budget=9)
        fed1 = run_protocol(replace(config, workers=1), data)
        fed4 = run_protocol(replace(config, workers=4), data)
        assert np.array_equal(fed1.server.root.b, fed4.server.root.b)
        assert np.array_equal(fed1.server.root.a, fed4.server.root.a)
        for l1, l4 in zip(fed1.leaves, fed4.leaves, strict=True):
            assert np.array_equal(l1.b, l4.b)
            assert np.array_equal(l1.a, l4.a)

    def test_worker_count_does_not_change_results_on_unequal_clients(self):
        # full batch: each chunk reads frozen logits computed once per stage
        # from its own layout, and at workers 3 the chunks (clients 0-1, 2
        # and 3) pack 3, 4 and 2 blocks of 16 rows against the stack's 4
        data = uneven_federation()
        config = small_config(n_clients=4, batch_size=16, t_root=4, t_cluster=3, t_leaf=2,
                              total_budget=9)
        blocks = -(-np.asarray(data.train_sizes) // 16)
        assert [int(blocks[part].max()) for part in np.array_split(np.arange(4), 3)] == [3, 4, 2]
        fed1, fed3 = (run_protocol(replace(config, workers=w), data) for w in (1, 3))
        assert np.array_equal(fed1.server.assignment.labels, fed3.server.assignment.labels)
        assert fed1.server.clusters.keys() == fed3.server.clusters.keys()
        for ad1, ad3 in zip([fed1.server.root, *fed1.server.clusters.values(), *fed1.leaves],
                            [fed3.server.root, *fed3.server.clusters.values(), *fed3.leaves],
                            strict=True):
            assert np.array_equal(ad1.b, ad3.b) and np.array_equal(ad1.a, ad3.a)

    def test_single_client_protocol_runs(self):
        data = tiny_federation(1, seed=9)
        config = small_config(n_clients=1)
        fed = run_protocol(config, data)
        assert fed.server.assignment.k_star == 1
        assert fed.server.assignment.labels[0] == 0

    def test_client_count_mismatch(self):
        data = tiny_federation(3, seed=10)
        with pytest.raises(ConfigurationError):
            run_protocol(small_config(n_clients=5), data)

    def test_budget_sum_validated(self):
        with pytest.raises(ConfigurationError):
            small_config(t_root=5, t_cluster=5, t_leaf=5, total_budget=16)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["lr", "tau_rel", "eps", "gamma_c", "gamma_l",
                                      "ema_decay"])
    def test_non_finite_floats_rejected(self, name, value):
        with pytest.raises(ConfigurationError):
            small_config(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_sgd_config_rejects_non_finite_lr(self, value):
        with pytest.raises(ConfigurationError):
            SgdConfig(lr=value, epochs=1)

    @pytest.mark.parametrize("batch_mode", ["full", "mini"])
    def test_batch_size_above_the_largest_client_trains_as_the_largest_client(self, batch_mode):
        # a block above the largest train split only adds padding: the stages
        # cap it at the largest split in the federation, at any worker count,
        # and adaptation at the unseen client's own train rows. At hidden_dim
        # 32 a longer padded block changes the kernel's bits, so an uncapped
        # 4096 would not match
        data = uneven_federation()
        config = small_config(n_clients=4, batch_mode=batch_mode, batch_size=4096, hidden_dim=32)
        feds = [run_protocol(c, data) for c in (replace(config, batch_size=50), config,
                                                replace(config, workers=2))]
        tiers = [[f.server.root, *f.server.clusters.values(), *f.leaves]
                 for f in feds]
        for first, *others in zip(*tiers, strict=True):
            assert all(np.array_equal(first.b, ad.b) and np.array_equal(first.a, ad.a)
                       for ad in others)
        unseen, fed = data.unseen[0], feds[0]
        own, huge = (adapt_unseen(fed.model, unseen, fed.server, replace(config, batch_size=size),
                                  epochs=2, seed=3) for size in (30, 4096))
        assert own.assigned_cluster == huge.assigned_cluster
        assert own.accuracy_trajectory == huge.accuracy_trajectory
        assert np.array_equal(own.path.leaf.b, huge.path.leaf.b)
        assert np.array_equal(own.path.leaf.a, huge.path.leaf.a)

    def test_mini_batch_mode_is_deterministic(self):
        data = tiny_federation(3, seed=11)
        config = small_config(batch_mode="mini", batch_size=8)
        fed_a = run_protocol(config, data)
        fed_b = run_protocol(config, data)
        assert np.array_equal(fed_a.server.root.b, fed_b.server.root.b)
        for la, lb in zip(fed_a.leaves, fed_b.leaves, strict=True):
            assert np.array_equal(la.b, lb.b)


class TestStackedRounds:
    @pytest.mark.parametrize("batch_mode", ["full", "mini"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_local_update_calls_carry_the_rows_times_epochs_schedule(
            self, monkeypatch, batch_mode, workers):
        # each round makes one call per chunk whose stack holds every running
        # group's members, so rows x epochs over the calls is exactly the
        # per-client schedule the stage reports imply
        data = tiny_federation(6, seed=13)
        config = small_config(n_clients=6, t_root=4, t_cluster=3, t_leaf=3,
                              total_budget=10, local_epochs=2, batch_mode=batch_mode,
                              batch_size=8)
        calls = []
        real = fedtier.federation.local_update

        def counting(*args, **kwargs):
            calls.append((args[2], kwargs["opt"].epochs))
            return real(*args, **kwargs)

        monkeypatch.setattr(fedtier.federation, "local_update", counting)
        fed = run_protocol(replace(config, workers=workers), data)
        sizes = data.train_sizes
        expected = 0
        for rep in fed.reports:
            if rep.stage == "root":
                expected += rep.rounds * sum(sizes) * config.local_epochs
            elif rep.stage == "cluster":
                members = fed.server.assignment.members(rep.cluster)
                expected += rep.rounds * sum(sizes[i] for i in members) * config.local_epochs
            else:
                expected += rep.rounds * sizes[rep.client]
        assert all(isinstance(stack, ClientStack) for stack, _ in calls)
        assert sum(len(stack) * epochs for stack, epochs in calls) == expected
        rounds = {stage: max(r.rounds for r in fed.reports if r.stage == stage)
                  for stage in ("root", "cluster", "leaf")}
        if workers == 1:
            assert len(calls) == sum(rounds.values())
        else:
            assert sum(rounds.values()) < len(calls) <= workers * sum(rounds.values())


# configs whose cascade cannot run: (overrides of small_config, field the error names)
CASCADE_CONFIGS = {
    "t_root_zero": (dict(t_root=0, total_budget=7), "t_root"),
    "k_min_above_n_clients_minus_one": (dict(n_clients=8, k_min=8, k_max=10), "k_min"),
}


@pytest.mark.parametrize("case", sorted(CASCADE_CONFIGS))
def test_a_cascade_that_cannot_run_fails_at_config_time(case):
    overrides, name = CASCADE_CONFIGS[case]
    with pytest.raises(ConfigurationError, match=name):
        small_config(**overrides)


# (t_cluster, t_leaf) after a 4-round root stage, including each zero budget
BUDGET_SPLITS = [(3, 2), (0, 5), (5, 0), (0, 0)]


@pytest.mark.parametrize("t_cluster,t_leaf", BUDGET_SPLITS)
def test_every_stage_reports_for_every_budget_split(t_cluster, t_leaf):
    # a stage with budget 0 runs zero rounds: one report per group, each
    # with no round, and its never-trained init adapters keep B exactly 0
    config = small_config(n_clients=6, t_root=4, t_cluster=t_cluster, t_leaf=t_leaf,
                          total_budget=4 + t_cluster + t_leaf)
    fed = run_protocol(config, tiny_federation(6, seed=13))
    n_clusters = len(fed.server.clusters)
    assert len(fed.reports) == 1 + n_clusters + config.n_clients
    assert ([r.stage for r in fed.reports]
            == ["root"] + ["cluster"] * n_clusters + ["leaf"] * config.n_clients)
    budgets = {"root": 4, "cluster": t_cluster, "leaf": t_leaf}
    for rep in fed.reports:
        assert len(rep.rho) == len(rep.weighted_loss) == rep.rounds <= budgets[rep.stage]
        if budgets[rep.stage] == 0:
            assert rep.rounds == 0 and rep.stop_reason == "budget"
    untrained = ([] if t_cluster else list(fed.server.clusters.values())) + (
        [] if t_leaf else fed.leaves)
    assert all(np.all(ad.b == 0.0) for ad in untrained)
    assert fed.rounds_executed <= config.total_budget


def test_two_clients_need_no_selection_range():
    # fewer than three clients fall back to one cluster, whatever k_min says
    fed = run_protocol(small_config(n_clients=2, k_min=5, k_max=6), tiny_federation(2, seed=3))
    assert fed.server.assignment.degenerate


# wrongly typed raw sizes and SGD settings: (call given the trained federation,
# the argument the error names)
RAW_SIZE_TYPE_ERRORS = {
    "sgd_fractional_epochs": (lambda fed: SgdConfig(lr=0.1, epochs=1.5), "epochs"),
    "sgd_fractional_batch_size": (
        lambda fed: SgdConfig(lr=0.1, epochs=1, batch_size=2.5), "batch_size"),
    "sgd_string_lr": (lambda fed: SgdConfig(lr="0.1", epochs=1), "lr"),
    "sgd_unknown_batch_mode": (lambda fed: SgdConfig(lr=0.1, epochs=1, batch_mode="adam"),
                               "batch_mode"),
    "federation_unknown_batch_mode": (lambda fed: small_config(batch_mode="adam"),
                                      "batch_mode"),
    "federation_zero_batch_size": (lambda fed: small_config(batch_size=0), "batch_size"),
    "adapt_fractional_epochs": (
        lambda fed: adapt_unseen(fed.model, fed.data.unseen[0], fed.server, fed.config,
                                 epochs=1.5), "epochs"),
    "adapt_bool_epochs": (
        lambda fed: adapt_unseen(fed.model, fed.data.unseen[0], fed.server, fed.config,
                                 epochs=True), "epochs"),
    "gradcheck_fractional_trials": (lambda fed: gradient_check(trials=1.5), "trials"),
    "cluster_clients_fractional_k_min": (lambda fed: cluster_clients(fed.tracker, k_min=2.5),
                                         "k_min"),
    "cluster_clients_fractional_k_max": (
        lambda fed: cluster_clients(fed.tracker, k_min=2, k_max=3.5), "k_max"),
    "cluster_clients_none_k_max": (lambda fed: cluster_clients(fed.tracker, k_max=None),
                                   "k_max"),
    "build_model_fractional_hidden_dim": (lambda fed: build_model(4, 3, 6.5, seed=0),
                                          "hidden_dim"),
    "build_model_fractional_class_count": (lambda fed: build_model(4, 2.5, 6, seed=0),
                                           "class_count"),
}


@pytest.mark.parametrize("case", sorted(RAW_SIZE_TYPE_ERRORS))
def test_wrongly_typed_size_is_a_configuration_error_naming_it(trained_fed, case):
    call, name = RAW_SIZE_TYPE_ERRORS[case]
    with pytest.raises(ConfigurationError, match=name):
        call(trained_fed)


# each stage entry point, called on the trained federation's data under config
STAGE_CALLS = {
    "root": lambda fed, config: run_root_stage(config, fed.data, fed.model,
                                               BasisTracker(config.ema_decay)),
    "cluster": lambda fed, config: run_cluster_stage(config, fed.data, fed.model,
                                                     fed.server.assignment, fed.server.root),
    "leaf": lambda fed, config: run_leaf_stage(config, fed.data, fed.model, fed.server.root,
                                               fed.server.clusters, fed.server.assignment),
}


@pytest.mark.parametrize("n_clients", [28, 32])
@pytest.mark.parametrize("stage", sorted(STAGE_CALLS))
def test_stage_refuses_a_client_count_the_data_does_not_hold(trained_fed, stage, n_clients):
    config = replace(trained_fed.config, n_clients=n_clients)
    with pytest.raises(ConfigurationError, match=f"config expects {n_clients} clients, data has 30"):
        STAGE_CALLS[stage](trained_fed, config)


# a server missing one of its trained parts, from the trained federation's
PARTIAL_SERVERS = {
    "empty": lambda server: ServerState(),
    "no_assignment": lambda server: ServerState(root=server.root, clusters=server.clusters),
    "no_clusters": lambda server: ServerState(root=server.root, assignment=server.assignment),
    "no_root": lambda server: ServerState(clusters=server.clusters,
                                          assignment=server.assignment),
}


@pytest.mark.parametrize("case", sorted(PARTIAL_SERVERS))
def test_trained_federation_refuses_a_partial_server(trained_fed, case):
    server = PARTIAL_SERVERS[case](trained_fed.server)
    with pytest.raises(ConfigurationError, match="server is not fully trained"):
        TrainedFederation(trained_fed.config, trained_fed.model, trained_fed.data, server,
                          trained_fed.leaves, [], trained_fed.tracker)


# parts of a trained federation that do not fit together, from the trained
# federation's (30 clients); each returns (server, leaves) and the message
MISFIT_PARTS = {
    "cluster_missing_a_label": (lambda fed: (ServerState(
        root=fed.server.root, assignment=fed.server.assignment,
        clusters={j: ad for j, ad in fed.server.clusters.items() if j != 1}), fed.leaves),
        r"server is not fully trained: no cluster adapter for the assigned labels \[1\]"),
    "three_leaves": (lambda fed: (fed.server, fed.leaves[:3]),
                     "30 labels and 3 leaves for 30 clients"),
    "labels_too_short": (lambda fed: (replace(fed.server, assignment=replace(
        fed.server.assignment, labels=fed.server.assignment.labels[:-2])), fed.leaves),
        "28 labels and 30 leaves for 30 clients"),
}


@pytest.mark.parametrize("case", sorted(MISFIT_PARTS))
def test_trained_federation_refuses_parts_that_do_not_fit(trained_fed, case):
    build, message = MISFIT_PARTS[case]
    server, leaves = build(trained_fed)
    with pytest.raises(ConfigurationError, match=message):
        TrainedFederation(trained_fed.config, trained_fed.model, trained_fed.data, server,
                          leaves, [], trained_fed.tracker)
