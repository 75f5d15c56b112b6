from dataclasses import replace

import numpy as np
import pytest

from fedtier.adaptation import (ClusterRepresentative, adapt_unseen, assign_cluster,
                                build_representatives, probe_basis)
from fedtier.errors import ConfigurationError, DegenerateInputError
from fedtier.federation import FederationConfig, run_protocol
from fedtier.linalg import frobenius_norm, orthonormal_columns, subspace_overlap
from fedtier.metrics import orthogonality_report
from fedtier.model import ClientStack, FrozenBackbone, HeadModel, Samples, encode, local_update
from fedtier.lora import zero_adapter
from oracles import head_gradient_oracle, random_orthonormal


class TestProbeBasis:
    def test_spans_the_head_gradients_top_subspace(self, trained_fed):
        # the routing basis is the top-rank left singular subspace of the
        # head gradient of the client's mean train cross-entropy at w0 + root
        fed, rank = trained_fed, trained_fed.config.rank
        train = fed.data.unseen[0].train
        enc = encode(fed.model, train)
        root = fed.server.root
        dw = head_gradient_oracle(fed.model.w0 + root.b @ root.a, enc.z, enc.y)
        top = np.linalg.svd(dw)[0][:, :rank]
        u = probe_basis(fed.model, train, root, rank=rank)
        assert abs(subspace_overlap(u, top) - rank) <= 1e-10

    def test_spans_the_bare_heads_gradient_under_a_zero_root(self, trained_fed):
        # the root sets the weight the gradient is taken at: a zero root
        # leaves w0 alone
        fed, rank = trained_fed, trained_fed.config.rank
        train = fed.data.unseen[1].train
        enc = encode(fed.model, train)
        top = np.linalg.svd(head_gradient_oracle(fed.model.w0, enc.z, enc.y))[0][:, :rank]
        u = probe_basis(fed.model, train, zero_adapter(*fed.model.w0.shape, rank), rank=rank)
        assert abs(subspace_overlap(u, top) - rank) <= 1e-10

    @pytest.mark.parametrize("rows", ["shuffled", "each_twice"])
    def test_a_mean_over_the_rows_gives_the_same_subspace(self, trained_fed, rows):
        # dW is a mean over the rows: reordering them or repeating every row
        # (twice the count, padded differently) leaves it unchanged
        fed, rank = trained_fed, trained_fed.config.rank
        train = fed.data.unseen[0].train
        u = probe_basis(fed.model, train, fed.server.root, rank=rank)
        order = np.random.default_rng(0).permutation(len(train.y))
        if rows == "each_twice":
            order = np.concatenate([order, order])
        moved = probe_basis(fed.model, Samples(train.x[order], train.y[order]),
                            fed.server.root, rank=rank)
        assert abs(subspace_overlap(u, moved) - rank) <= 1e-10

    def test_makes_no_kernel_call(self, trained_fed, monkeypatch):
        # the basis is one gradient: nothing is trained
        import fedtier.adaptation as adaptation
        import fedtier.model as model

        def refuse(*args, **kwargs):
            raise AssertionError("probe_basis ran local_update")

        monkeypatch.setattr(adaptation, "local_update", refuse)
        monkeypatch.setattr(model, "local_update", refuse)
        fed = trained_fed
        probe_basis(fed.model, fed.data.unseen[0].train, fed.server.root, rank=fed.config.rank)

    def test_deterministic_for_identical_data(self, trained_fed):
        fed = trained_fed
        client = fed.data.unseen[0]
        u1 = probe_basis(fed.model, client.train, fed.server.root, rank=fed.config.rank)
        u2 = probe_basis(fed.model, client.train, fed.server.root, rank=fed.config.rank)
        assert np.array_equal(u1, u2)

    def test_returns_orthonormal_columns(self, trained_fed):
        fed = trained_fed
        u = probe_basis(fed.model, fed.data.unseen[1].train, fed.server.root,
                        rank=fed.config.rank)
        assert np.allclose(u.T @ u, np.eye(fed.config.rank), atol=1e-10)

    def test_degenerate_data_rejected(self):
        # a dead backbone (zero features) gives a zero head gradient
        model = HeadModel(w0=np.zeros((3, 4)),
                          backbone=FrozenBackbone(m=np.zeros((4, 2)), bias=np.zeros(4)))
        data = Samples(np.zeros((2, 2)), [0, 1])
        with pytest.raises(DegenerateInputError):
            probe_basis(model, data, zero_adapter(3, 4, 2), rank=2)

    def test_one_clients_rows_in_any_form_give_the_same_bits(self, trained_fed):
        # Samples, their EncodedData and a stack of one are one client's rows
        fed = trained_fed
        train = fed.data.unseen[0].train
        enc = encode(fed.model, train)
        u = [probe_basis(fed.model, data, fed.server.root, rank=fed.config.rank)
             for data in (train, enc, ClientStack([enc]))]
        assert np.array_equal(u[0], u[1]) and np.array_equal(u[0], u[2])

    def test_a_stack_of_two_clients_is_refused(self, trained_fed):
        fed = trained_fed
        stack = ClientStack([encode(fed.model, client.train) for client in fed.data.unseen[:2]])
        with pytest.raises(ConfigurationError, match="stack of 2"):
            probe_basis(fed.model, stack, fed.server.root, rank=fed.config.rank)


class TestAssignCluster:
    def test_exact_representative_wins(self):
        rng = np.random.default_rng(0)
        reps = [ClusterRepresentative(j, random_orthonormal(8, 2, rng)) for j in range(3)]
        assert assign_cluster(reps[1].basis, reps) == 1

    def test_orthogonal_to_all_but_one(self):
        e = np.eye(6)
        reps = [ClusterRepresentative(0, e[:, 0:2]),
                ClusterRepresentative(1, e[:, 2:4])]
        probe = e[:, 4:6]
        probe_mixed = np.hstack([e[:, 2:3], e[:, 4:5]])  # half-overlaps cluster 1
        assert assign_cluster(probe_mixed, reps) == 1
        # fully orthogonal to both: scores tie at zero, lowest index wins
        assert assign_cluster(probe, reps) == 0

    def test_perturbed_copy_routes_home(self):
        rng = np.random.default_rng(1)
        reps = [ClusterRepresentative(j, random_orthonormal(10, 2, rng)) for j in range(4)]
        noisy = reps[2].basis + 0.01 * rng.normal(size=(10, 2))
        u = orthonormal_columns(noisy, 2)
        assert assign_cluster(u, reps) == 2

    def test_rescaling_underlying_factor_changes_nothing(self, trained_fed):
        fed = trained_fed
        reps = build_representatives(fed.server, fed.config.rank)
        scaled = []
        for rep, j in zip(reps, sorted(fed.server.clusters)):
            big = 37.5 * fed.server.clusters[j].b
            scaled.append(ClusterRepresentative(j, orthonormal_columns(big, fed.config.rank)))
        u = probe_basis(fed.model, fed.data.unseen[0].train, fed.server.root,
                        rank=fed.config.rank)
        assert assign_cluster(u, reps) == assign_cluster(u, scaled)

    def test_empty_reps_rejected(self):
        with pytest.raises(ConfigurationError):
            assign_cluster(np.eye(3)[:, :1], [])


class TestAdaptUnseen:
    def test_zero_epochs_returns_initial_accuracy_only(self, trained_fed):
        fed = trained_fed
        result = adapt_unseen(fed.model, fed.data.unseen[0], fed.server, fed.config,
                              epochs=0, seed=1)
        assert len(result.accuracy_trajectory) == 1

    def test_trajectory_has_epochs_plus_one_points(self, trained_fed):
        fed = trained_fed
        result = adapt_unseen(fed.model, fed.data.unseen[1], fed.server, fed.config,
                              epochs=4, seed=2)
        assert len(result.accuracy_trajectory) == 5
        assert all(0.0 <= a <= 1.0 for a in result.accuracy_trajectory)

    def test_member_twin_routes_to_members_cluster(self, trained_fed):
        # an unseen client with a participating member's exact data joins that
        # member's cluster and starts from the same root+cluster accuracy
        fed = trained_fed
        member = 4
        twin = fed.data.clients[member]
        result = adapt_unseen(fed.model, twin, fed.server, fed.config, epochs=0, seed=9)
        assert result.assigned_cluster == fed.server.assignment.labels[member]
        from fedtier.metrics import accuracy
        member_cluster_acc = accuracy(fed.model, fed.path_cluster(member), twin.test)
        assert abs(result.accuracy_trajectory[0] - member_cluster_acc) <= 0.05


    def test_the_route_draws_nothing_from_the_seed(self, trained_fed):
        # routing reads the client's data and the server only; the seed
        # draws the leaf the fine-tune starts from
        fed = trained_fed
        for client in fed.data.unseen:
            routes = {adapt_unseen(fed.model, client, fed.server, fed.config, epochs=0,
                                   seed=seed).assigned_cluster for seed in (0, 1, 7)}
            assert len(routes) == 1

    def test_fine_tune_runs_the_leaf_stage_settings(self, trained_fed, monkeypatch):
        # every fine-tune epoch is one leaf-stage round on inputs built as the
        # stage engine builds them: the leaf stage's optimiser and gammas,
        # penalized against the frozen root and cluster, drawing its order
        # from one shuffle stream; routing makes no call, so there is one per epoch
        import fedtier.adaptation as adaptation
        from fedtier.federation import _stage_settings
        from fedtier.lora import Tier, compose_path
        from fedtier.model import KernelInputs
        fed = trained_fed
        config = replace(fed.config, gamma_c=0.3, gamma_l=0.7, batch_mode="mini")
        calls = []

        def spy(model, inputs, data, *, opt, rng=None, frozen_logits=None):
            calls.append((inputs, opt, len(data), rng))
            return local_update(model, inputs, data, opt=opt, rng=rng,
                                frozen_logits=frozen_logits)

        monkeypatch.setattr(adaptation, "local_update", spy)
        client = fed.data.unseen[2]
        result = adapt_unseen(fed.model, client, fed.server, config, epochs=2, seed=4)
        _, opt, gammas = _stage_settings(config, Tier.LEAF, len(client.train))
        assert len(calls) == 2
        cluster = fed.server.clusters[result.assigned_cluster]
        without_leaf = replace(result.path, leaf=zero_adapter(*fed.model.w0.shape,
                                                              config.rank))
        assert gammas == (0.3, 0.7)
        root_b, cluster_b = fed.server.root.b, cluster.b
        for inputs, got_opt, rows, rng in calls:
            assert isinstance(inputs, KernelInputs) and rows == len(client.train)
            assert got_opt == opt and got_opt.epochs == 1 and got_opt.batch_mode == "mini"
            # the inputs carry the gammas as their penalty pair
            assert np.array_equal(inputs.penalty_b, np.hstack([root_b, cluster_b])[None])
            assert np.array_equal(inputs.penalty_bt,
                                  np.vstack([0.6 * root_b.T, 1.4 * cluster_b.T])[None])
            assert np.array_equal(inputs.frozen, compose_path(without_leaf, fed.model.w0)[None])
            assert len(rng) == 1 and rng[0] is calls[0][3][0]
        assert calls[0][0].b is calls[1][0].b   # one KernelInputs, updated in place

    @pytest.mark.parametrize("batch_mode", ["full", "mini"])
    def test_a_diverging_fine_tune_is_refused_at_its_epoch(self, trained_fed, monkeypatch,
                                                           batch_mode):
        # a fine-tune epoch is refused as a leaf round is (federation._check_round):
        # the first epoch past the factor bound raises, before anything scores
        # it or runs another epoch
        import warnings
        import fedtier.adaptation as adaptation
        from fedtier.federation import _FACTOR_BOUND
        from fedtier.linalg import frobenius_norm
        fed = trained_fed
        stage_settings, score = adaptation._stage_settings, adaptation._stack_accuracy
        updates, scored = [], []

        def huge_lr(*args):   # the fine-tune diverges
            budget, opt, gammas = stage_settings(*args)
            return budget, replace(opt, lr=1e300), gammas

        def spy(model, inputs, data, *, opt, rng=None, frozen_logits=None):
            out = local_update(model, inputs, data, opt=opt, rng=rng,
                               frozen_logits=frozen_logits)
            with np.errstate(over="ignore", invalid="ignore"):
                bound = frobenius_norm(inputs.b) * frobenius_norm(inputs.a)
            updates.append((bool(np.all(bound <= _FACTOR_BOUND)),
                            bool(np.isfinite(inputs.b).all() and np.isfinite(inputs.a).all()),
                            inputs.penalty_b.shape[-1]))
            return out

        def scoring(w, stack):
            scored.append(len(updates))   # fine-tune epochs run so far
            return score(w, stack)

        monkeypatch.setattr(adaptation, "_stage_settings", huge_lr)
        monkeypatch.setattr(adaptation, "local_update", spy)
        monkeypatch.setattr(adaptation, "_stack_accuracy", scoring)
        config = replace(fed.config, batch_mode=batch_mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError) as refused:
                adapt_unseen(fed.model, fed.data.unseen[2], fed.server, config, epochs=8, seed=4)
        # one call per epoch up to the refused one, each penalized against the
        # root and cluster B factors, side by side in its penalty pair
        within, finite, penalized = ([epoch[k] for epoch in updates] for k in (0, 1, 2))
        assert penalized == [2 * config.rank] * len(updates)
        assert within and not within[-1] and all(within[:-1])
        assert scored == list(range(1, len(within)))
        assert f"leaf stage diverged in round {len(within)}" in str(refused.value)
        assert f"lower lr (now {config.lr:g})" in str(refused.value)
        if batch_mode == "full":   # refused at its first epoch, whose factors are still finite
            assert len(within) == 1 and finite == [True]

    @pytest.mark.parametrize("batch_mode", ["full", "mini"])
    def test_each_split_is_packed_once(self, trained_fed, monkeypatch, batch_mode):
        # the routing basis and every fine-tune epoch read one packed train stack
        fed = trained_fed
        packed = []
        layout = ClientStack.layout

        def spy(stack, block):
            packed.append(stack)
            return layout(stack, block)

        monkeypatch.setattr(ClientStack, "layout", spy)
        config = replace(fed.config, batch_mode=batch_mode)
        adapt_unseen(fed.model, fed.data.unseen[1], fed.server, config, epochs=3, seed=2)
        assert len({id(stack) for stack in packed}) == 2


class TestUntrainedClusters:
    def test_zero_cluster_adapters_refuse_routing(self, clustershift_data):
        # without a cluster stage every cluster adapter is zero and spans no
        # subspace; routing must say so instead of picking cluster 0
        config = FederationConfig(n_clients=30, rank=2, t_root=10, t_cluster=0, t_leaf=2,
                                  total_budget=12, lr=0.05, batch_mode="full",
                                  master_seed=1, hidden_dim=32)
        fed = run_protocol(config, clustershift_data)
        with pytest.raises(DegenerateInputError):
            build_representatives(fed.server, config.rank)
        with pytest.raises(DegenerateInputError):
            adapt_unseen(fed.model, fed.data.unseen[0], fed.server, config, epochs=1)

    def test_a_cluster_with_no_direction_is_refused_and_left_out_alike(self, trained_fed):
        # routing and the orthogonality report read one no-direction rule: a
        # cluster adapter scaled to ||B|| = 1e-9 is refused by the one and its
        # members are excluded by the other
        fed = trained_fed
        j = int(fed.server.assignment.labels[0])
        tiny = replace(fed.server.clusters[j], b=fed.server.clusters[j].b * (
            1e-9 / frobenius_norm(fed.server.clusters[j].b)))
        server = replace(fed.server, clusters={**fed.server.clusters, j: tiny})
        with pytest.raises(DegenerateInputError, match=f"cluster {j} adapter"):
            build_representatives(server, fed.config.rank)
        members = len(fed.server.assignment.members(j))
        before = orthogonality_report(fed).pairs
        after = orthogonality_report(replace(fed, server=server)).pairs
        for name in ("root_cluster", "cluster_leaf"):
            assert after[name].excluded == before[name].excluded + members
            assert after[name].count == before[name].count - members
        assert after["root_leaf"] == before["root_leaf"]
