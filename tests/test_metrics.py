import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import fedtier.metrics
import fedtier.model
from fedtier.datagen import ClientSplit, FederationData, gen_pool
from fedtier.errors import ConfigurationError, PreconditionError
from fedtier.federation import FederationConfig, run_protocol, weights_cluster
from fedtier.lora import AdapterPath, compose_path, zero_adapter
from fedtier.metrics import (accuracy, clustering_quality, compute_metrics,
                             orthogonality_report, tier_gains, worst_decile)
from fedtier.model import (ClientStack, FrozenBackbone, HeadModel, Samples, dataset_loss, encode,
                           forward)
from oracles import accuracy_oracle, orthogonality_oracle


def pair_count_ari(labels, truth):
    """Textbook pair-counting ARI, independent of the contingency route."""
    n = len(labels)
    together_both = together_a = together_b = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            sa = labels[i] == labels[j]
            sb = truth[i] == truth[j]
            together_a += sa
            together_b += sb
            together_both += sa and sb
    expected = together_a * together_b / total
    max_index = (together_a + together_b) / 2
    if max_index == expected:
        return 1.0
    return (together_both - expected) / (max_index - expected)


def counting_nmi(labels, truth):
    """NMI from label and label-pair frequencies counted one row at a time,
    independent of the contingency-table route."""
    n = len(labels)
    joint, pa, pb = Counter(zip(labels, truth)), Counter(labels), Counter(truth)
    mi = sum(k / n * math.log(k * n / (pa[a] * pb[b])) for (a, b), k in joint.items())

    def entropy(counts):
        return -sum(k / n * math.log(k / n) for k in counts.values())

    mean_h = (entropy(pa) + entropy(pb)) / 2
    return 1.0 if mean_h == 0.0 else mi / mean_h


class TestAccuracy:
    def test_constant_predictor_on_single_class(self):
        w0 = np.zeros((3, 2))
        w0[1, :] = 5.0
        model = HeadModel(w0=w0, backbone=FrozenBackbone(m=np.eye(2), bias=np.ones(2)))
        path = AdapterPath(root=zero_adapter(3, 2, 1), cluster=zero_adapter(3, 2, 1),
                           leaf=zero_adapter(3, 2, 1))
        data = Samples(np.ones((4, 2)), np.ones(4))
        assert accuracy(model, path, data) == 1.0

    def test_uniform_logits_tie_picks_lowest_class(self):
        model = HeadModel(w0=np.zeros((2, 3)),
                          backbone=FrozenBackbone(m=np.ones((3, 2)), bias=np.zeros(3)))
        path = AdapterPath(root=zero_adapter(2, 3, 1), cluster=zero_adapter(2, 3, 1),
                           leaf=zero_adapter(2, 3, 1))
        data = Samples(np.ones((3, 2)), [0, 0, 1])
        # every prediction is class 0 under the tie rule
        assert accuracy(model, path, data) == pytest.approx(2 / 3, abs=1e-15)

    def test_matches_per_sample_loop(self, trained_fed):
        fed = trained_fed
        path, test = fed.path_full(2), fed.data.clients[2].test
        acc = accuracy(fed.model, path, test)
        hits = 0
        for x, y in zip(test.x, test.y):
            logits = forward(fed.model, path, x)
            hits += int(np.argmax(logits)) == y
        assert acc == pytest.approx(hits / len(test), abs=1e-15)

    def test_empty_set_rejected(self, trained_fed):
        with pytest.raises(PreconditionError):
            accuracy(trained_fed.model, trained_fed.path_full(0),
                     Samples(np.zeros((0, 8)), []))


class TestWorstDecile:
    def test_ten_values_keeps_one(self):
        vals = [k / 10 for k in range(1, 11)]
        assert worst_decile(vals) == pytest.approx(0.1, abs=1e-15)

    def test_constant_list(self):
        assert worst_decile([0.7] * 9) == pytest.approx(0.7, abs=1e-15)

    def test_matches_sort_and_slice_oracle(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(size=25).tolist()
        expect = float(np.mean(sorted(vals)[:3]))  # ceil(2.5) = 3
        assert worst_decile(vals) == pytest.approx(expect, abs=1e-15)

    def test_never_exceeds_mean(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            vals = rng.uniform(size=int(rng.integers(1, 40))).tolist()
            assert worst_decile(vals) <= float(np.mean(vals)) + 1e-15


def root_only_fed():
    pool = gen_pool(4, 4, 80, 3.0, seed=2)
    per = len(pool.samples) // 4
    clients = [ClientSplit(train=pool.samples[i * per:(i + 1) * per - 10],
                           test=pool.samples[(i + 1) * per - 10:(i + 1) * per])
               for i in range(4)]
    data = FederationData(clients=clients, class_count=4, feature_dim=4)
    config = FederationConfig(n_clients=4, rank=2, t_root=5, t_cluster=0, t_leaf=0,
                              total_budget=5, lr=0.05, batch_mode="full",
                              master_seed=3, hidden_dim=10)
    return run_protocol(config, data)


class TestTierGains:
    def test_no_cluster_stage_means_zero_cluster_gain(self):
        fed = root_only_fed()
        for i in range(4):
            gains = tier_gains(fed, i)
            assert gains.g_cluster == 0.0
            assert gains.g_cluster_own == 0.0
            assert gains.g_leaf == 0.0  # leaf stage skipped too

    def test_additivity_on_own_data(self, trained_fed):
        fed = trained_fed
        for i in (0, 7, 19):
            gains = tier_gains(fed, i)
            train = fed.data.clients[i].train
            total_drop = (dataset_loss(fed.model, fed.path_root(i), train)
                          - dataset_loss(fed.model, fed.path_full(i), train))
            assert total_drop == pytest.approx(gains.g_cluster_own + gains.g_leaf,
                                               abs=1e-12)

    def test_cluster_gain_is_the_cluster_weighted_loss_drop(self, trained_fed):
        # G_c by its definition: the size-weighted train loss over the
        # cluster's members under the root-only and the root+cluster weights
        fed = trained_fed
        report = compute_metrics(fed)
        expect = {}
        for j in fed.server.assignment.cluster_ids:
            members = fed.server.assignment.members(j)
            pi = weights_cluster(fed.data.train_sizes, members)

            def cluster_loss(path):
                return sum(w * dataset_loss(fed.model, path, fed.data.clients[m].train)
                           for w, m in zip(pi, members))

            expect[j] = (cluster_loss(fed.path_root(members[0]))
                         - cluster_loss(fed.path_cluster(members[0])))
        assert len(expect) > 1
        for j, g_c in zip(report.clusters, report.gains_cluster):
            assert g_c == pytest.approx(expect[j], rel=0, abs=1e-12)

    def test_gains_finite(self, trained_fed):
        for i in range(0, 30, 5):
            gains = tier_gains(trained_fed, i)
            assert math.isfinite(gains.g_cluster)
            assert math.isfinite(gains.g_leaf)

    @pytest.mark.parametrize("bad, message", [
        (-1, r"must lie in \[0, n_clients\), got -1"),
        (30, r"must lie in \[0, n_clients\), got 30"),
        (2.0, "must be an integer, got 2.0"), (True, "must be an integer, got True"),
    ], ids=["negative", "n", "float", "bool"])
    def test_bad_client_ids_are_refused_typed(self, trained_fed, bad, message):
        fed = trained_fed
        assert fed.config.n_clients == 30
        calls = [lambda: tier_gains(fed, bad), lambda: fed.path_root(bad),
                 lambda: fed.path_cluster(bad), lambda: fed.path_full(bad)]
        for call in calls:
            with pytest.raises(ConfigurationError, match=f"^client_id {message}$"):
                call()


class TestClusteringQuality:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        ari, nmi = clustering_quality(labels, labels)
        assert ari == 1.0
        assert nmi == 1.0

    def test_renamed_labels_still_perfect(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        renamed = np.array([2, 2, 0, 0, 1, 1])
        ari, nmi = clustering_quality(renamed, truth)
        assert ari == 1.0
        assert nmi == pytest.approx(1.0, abs=1e-12)

    def test_classic_checkerboard_value(self):
        # all contingency cells equal 1: ARI is exactly -0.5
        ari, _ = clustering_quality([0, 0, 1, 1], [0, 1, 0, 1])
        assert ari == pytest.approx(-0.5, abs=1e-12)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            labels = rng.integers(0, 3, size=12)
            truth = rng.integers(0, 4, size=12)
            ari, _ = clustering_quality(labels, truth)
            assert ari == pytest.approx(pair_count_ari(labels, truth), abs=1e-12)
            assert ari <= 1.0

    def test_nmi_matches_counting_oracle(self):
        # sparse, unsorted label values exercise the table's label indexing
        rng = np.random.default_rng(4)
        for _ in range(10):
            labels = rng.integers(0, 3, size=15) * 7 - 2
            truth = rng.integers(0, 4, size=15)[::-1] + 10
            _, nmi = clustering_quality(labels, truth)
            assert nmi == pytest.approx(counting_nmi(labels.tolist(), truth.tolist()),
                                        abs=1e-12)

    def test_random_labels_have_near_zero_expected_ari(self):
        rng = np.random.default_rng(3)
        vals = []
        for _ in range(200):
            labels = rng.integers(0, 3, size=30)
            truth = rng.integers(0, 3, size=30)
            vals.append(clustering_quality(labels, truth)[0])
        assert abs(float(np.mean(vals))) <= 0.02

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            clustering_quality([0, 1], [0, 1, 2])


class TestOrthogonalityReport:
    def test_root_only_run_excludes_empty_tiers(self):
        fed = root_only_fed()
        report = orthogonality_report(fed)
        for name in ("root_cluster", "root_leaf", "cluster_leaf"):
            assert report.pairs[name].excluded == 4
            assert report.pairs[name].count == 0
            assert report.pairs[name].mean is None

    def test_full_run_reports_all_pairs(self, trained_fed):
        report = orthogonality_report(trained_fed)
        for name, stats in report.pairs.items():
            assert stats.count + stats.excluded == 30
            if stats.count:
                assert 0.0 <= stats.mean <= 1.0
                assert stats.mean <= stats.max + 1e-15


def orthogonality_by_loop(fed):
    return orthogonality_oracle(
        fed.server.root.b, [fed.server.clusters[j].b for j in fed.server.assignment.labels],
        [leaf.b for leaf in fed.leaves], fed.config.rank, fedtier.linalg.NO_DIRECTION)


class TestStackedScores:
    def test_every_stage_accuracy_matches_the_argmax_oracle(self, trained_fed):
        fed = trained_fed
        report = compute_metrics(fed)
        for i, client in enumerate(fed.data.clients):
            test = encode(fed.model, client.test)
            for got, path in ((report.accuracies_root[i], fed.path_root(i)),
                              (report.accuracies_cluster[i], fed.path_cluster(i)),
                              (report.accuracies[i], fed.path_full(i))):
                assert got == accuracy_oracle(test.z, test.y, compose_path(path, fed.model.w0))

    def test_stage_weights_are_each_paths_composed_weight_bitwise(self, trained_fed):
        fed = trained_fed
        ids = list(range(fed.config.n_clients))
        weights = fedtier.metrics._stage_weights(fed, ids)
        for snapshot, path_of in zip(weights, (fed.path_root, fed.path_cluster, fed.path_full),
                                     strict=True):
            assert snapshot.shape == (len(ids), *fed.model.w0.shape)
            for i in ids:
                assert np.array_equal(snapshot[i], compose_path(path_of(i), fed.model.w0))

    def test_accuracy_takes_a_one_client_stack(self, trained_fed):
        fed = trained_fed
        test = encode(fed.model, fed.data.clients[4].test)
        path = fed.path_full(4)
        assert accuracy(fed.model, path, ClientStack([test])) == accuracy(fed.model, path, test)

    def test_orthogonality_matches_the_per_pair_loop(self, trained_fed):
        report = orthogonality_report(trained_fed)
        expect = orthogonality_by_loop(trained_fed)
        assert sum(expect[name]["count"] for name in expect) > 0
        for name, stats in report.pairs.items():
            assert (stats.count, stats.excluded) == (expect[name]["count"],
                                                     expect[name]["excluded"])
            for key in ("mean", "max"):
                if expect[name]["count"]:
                    assert getattr(stats, key) == pytest.approx(expect[name][key], rel=0,
                                                                abs=1e-15)
                else:
                    assert getattr(stats, key) is None

    def test_negligible_leaves_leave_only_their_own_pairs(self, trained_fed):
        # three clients' leaves zeroed: they drop out of the leaf pairs alone
        fed = trained_fed
        zero = zero_adapter(fed.model.class_count, fed.model.backbone.hidden_dim, fed.config.rank)
        fed = replace(fed, leaves=[zero if i in (0, 3, 5) else leaf
                                   for i, leaf in enumerate(fed.leaves)])
        report = orthogonality_report(fed)
        for name, expect in orthogonality_by_loop(fed).items():
            stats = report.pairs[name]
            assert (stats.count, stats.excluded) == (expect["count"], expect["excluded"])
            assert stats.excluded == (0 if name == "root_cluster" else 3)
            assert stats.mean == pytest.approx(expect["mean"], rel=0, abs=1e-15)
            assert stats.max == pytest.approx(expect["max"], rel=0, abs=1e-15)

    def test_root_only_run_counts_match_the_loop(self):
        fed = root_only_fed()
        report = orthogonality_report(fed)
        for name, expect in orthogonality_by_loop(fed).items():
            assert (report.pairs[name].count, report.pairs[name].excluded) == (
                expect["count"], expect["excluded"])


class TestComputeMetrics:
    def test_report_shape_and_bounds(self, trained_fed):
        rep = compute_metrics(trained_fed)
        assert len(rep.accuracies) == 30
        assert all(0.0 <= a <= 1.0 for a in rep.accuracies)
        assert rep.worst_decile_accuracy <= rep.mean_accuracy + 1e-15
        assert set(rep.per_cluster_accuracy) == set(rep.clusters)
        assert rep.ari is not None and rep.nmi is not None
        payload = rep.to_dict()
        assert len(payload["clients"]) == 30
        assert "stage_mean_accuracy" in payload


def test_compute_metrics_encodes_each_split_once(trained_fed, monkeypatch):
    encoded = []
    real = fedtier.model.encode

    def counting(model, data):
        encoded.append(len(data))
        return real(model, data)

    for module in (fedtier.metrics, fedtier.model):
        monkeypatch.setattr(module, "encode", counting)
    report = compute_metrics(trained_fed)
    assert len(encoded) <= 2 * len(trained_fed.data.clients)
    monkeypatch.undo()
    for i in range(len(trained_fed.data.clients)):
        gains = tier_gains(trained_fed, i)
        assert report.gains_cluster[i] == gains.g_cluster
        assert report.gains_leaf[i] == gains.g_leaf
        assert report.gains_cluster_own[i] == gains.g_cluster_own
