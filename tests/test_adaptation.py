import numpy as np
import pytest

from fedtier.adaptation import (ClusterRepresentative, adapt_unseen, assign_cluster,
                                build_representatives, probe_basis)
from fedtier.errors import ConfigurationError, DegenerateInputError
from fedtier.federation import FederationConfig, run_protocol
from fedtier.linalg import orthonormal_columns
from fedtier.model import FrozenBackbone, HeadModel, Samples
from fedtier.lora import zero_adapter
from oracles import random_orthonormal


class TestProbeBasis:
    def test_deterministic_for_identical_data_and_seed(self, trained_fed):
        fed = trained_fed
        client = fed.data.unseen[0]
        kwargs = dict(rank=fed.config.rank, steps=10, lr=fed.config.lr, seed=3)
        u1 = probe_basis(fed.model, client.train, fed.server.root, **kwargs)
        u2 = probe_basis(fed.model, client.train, fed.server.root, **kwargs)
        assert np.array_equal(u1, u2)

    def test_returns_orthonormal_columns(self, trained_fed):
        fed = trained_fed
        u = probe_basis(fed.model, fed.data.unseen[1].train, fed.server.root,
                        rank=fed.config.rank, steps=5, lr=fed.config.lr, seed=0)
        assert np.allclose(u.T @ u, np.eye(fed.config.rank), atol=1e-10)

    def test_degenerate_data_rejected(self):
        # a dead backbone (zero features) never moves the probe's B off zero
        model = HeadModel(w0=np.zeros((3, 4)),
                          backbone=FrozenBackbone(m=np.zeros((4, 2)), bias=np.zeros(4)))
        data = Samples(np.zeros((2, 2)), [0, 1])
        with pytest.raises(DegenerateInputError):
            probe_basis(model, data, zero_adapter(3, 4, 2), rank=2, steps=3, lr=0.1)

    def test_step_count_validated(self, trained_fed):
        fed = trained_fed
        with pytest.raises(ConfigurationError):
            probe_basis(fed.model, fed.data.unseen[0].train, fed.server.root,
                        rank=fed.config.rank, steps=0, lr=0.1)


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
                        rank=fed.config.rank, steps=10, lr=fed.config.lr, seed=5)
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
        assert result.assigned_cluster == fed.clients[member].cluster
        from fedtier.metrics import accuracy
        member_cluster_acc = accuracy(fed.model, fed.path_cluster(member), twin.test)
        assert abs(result.accuracy_trajectory[0] - member_cluster_acc) <= 0.05


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
