import math

import numpy as np
import pytest

from fedtier.clustering import (BasisTracker, _lloyd, _relabel_by_first_appearance, affinity,
                                cluster_clients,
                                distance_matrix, ema_update, laplacian_sym,
                                median_offdiag_distance, pairwise_distance,
                                select_k, spectral_cluster)
from fedtier.errors import ConfigurationError, DegenerateInputError, PreconditionError
from fedtier.linalg import frobenius_norm
from fedtier.metrics import clustering_quality
from oracles import lloyd_loop, random_orthonormal, relabel_loop


def block_affinity(sizes, off=0.0):
    n = sum(sizes)
    s = np.full((n, n), off)
    start = 0
    for size in sizes:
        s[start:start + size, start:start + size] = 1.0
        start += size
    return s


def block_labels(sizes):
    out = []
    for g, size in enumerate(sizes):
        out.extend([g] * size)
    return np.array(out)


class TestEmaUpdate:
    def test_first_round_sets_normalized_input(self):
        tracker = BasisTracker(decay=0.9)
        b = np.array([[3.0, 0.0], [0.0, 4.0]])
        ema_update(tracker, 0, b)
        assert np.allclose(tracker.bases[0], b / 5.0, atol=1e-15)
        assert frobenius_norm(tracker.bases[0]) == pytest.approx(1.0, abs=1e-10)

    def test_constant_input_is_fixed_point(self):
        tracker = BasisTracker(decay=0.7)
        b = np.array([[1.0], [2.0]])
        for _ in range(10):
            ema_update(tracker, 3, b)
        assert np.allclose(tracker.bases[3], b / frobenius_norm(b), atol=1e-12)

    def test_two_step_hand_computation(self):
        tracker = BasisTracker(decay=0.9)
        u1 = np.array([[1.0], [0.0]])
        u2 = np.array([[0.0], [1.0]])
        ema_update(tracker, 0, u1)
        ema_update(tracker, 0, u2)
        mixed = 0.9 * u1 + 0.1 * u2
        expect = mixed / frobenius_norm(mixed)
        assert np.allclose(tracker.bases[0], expect, atol=1e-15)

    def test_zero_norm_rejected(self):
        tracker = BasisTracker(decay=0.5)
        with pytest.raises(DegenerateInputError):
            ema_update(tracker, 0, np.zeros((3, 2)))

    def test_unit_norm_invariant_after_updates(self):
        rng = np.random.default_rng(0)
        tracker = BasisTracker(decay=0.8)
        for rnd in range(6):
            ema_update(tracker, 1, rng.normal(size=(4, 2)))
            assert frobenius_norm(tracker.bases[1]) == pytest.approx(1.0, abs=1e-10)

    def test_decay_out_of_range(self):
        with pytest.raises(ConfigurationError):
            BasisTracker(decay=1.0)


class TestPairwiseDistance:
    def test_identical_subspaces(self):
        u = random_orthonormal(6, 2, np.random.default_rng(1))
        assert pairwise_distance(u, u, 2) == pytest.approx(0.0, abs=1e-12)

    def test_fully_orthogonal(self):
        u = np.eye(4)[:, :2]
        v = np.eye(4)[:, 2:]
        assert pairwise_distance(u, v, 2) == 1.0

    def test_analytic_half(self):
        e1 = np.array([[1.0], [0.0]])
        mid = np.array([[1.0], [1.0]]) / math.sqrt(2)
        assert pairwise_distance(e1, mid, 1) == pytest.approx(0.5, abs=1e-12)

    def test_metric_like_axioms(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            u = random_orthonormal(7, 3, rng)
            v = random_orthonormal(7, 3, rng)
            d = pairwise_distance(u, v, 3)
            assert 0.0 <= d <= 1.0
            assert pairwise_distance(v, u, 3) == pytest.approx(d, abs=1e-12)
            rot = random_orthonormal(3, 3, rng)
            assert pairwise_distance(u @ rot, v, 3) == pytest.approx(d, abs=1e-10)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(PreconditionError):
            pairwise_distance(np.ones((3, 1)), np.eye(3)[:, :1], 1)


class TestDistanceMatrix:
    def test_identical_bases_two_clients(self):
        u = random_orthonormal(5, 2, np.random.default_rng(3))
        d = distance_matrix([[u], [u.copy()]])
        assert np.allclose(d, np.zeros((2, 2)), atol=1e-12)

    def test_layer_averaging(self):
        same = np.eye(4)[:, :2]
        orth = np.eye(4)[:, 2:]
        d = distance_matrix([[same, same], [same.copy(), orth]])
        assert d[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        bases = [[random_orthonormal(6, 2, rng)] for _ in range(4)]
        d = distance_matrix(bases)
        for i in range(4):
            assert d[i, i] == 0.0
            for j in range(4):
                cross = bases[i][0].T @ bases[j][0]
                expect = 1.0 - np.sum(cross * cross) / 2
                assert d[i, j] == pytest.approx(max(expect, 0.0), abs=1e-12)
        assert np.array_equal(d, d.T)

    def test_ragged_layers_rejected(self):
        u = np.eye(3)[:, :1]
        with pytest.raises(ConfigurationError):
            distance_matrix([[u, u], [u]])

    def test_matches_pairwise_distance_loop(self):
        rng = np.random.default_rng(11)
        bases = [[random_orthonormal(7, 2, rng), random_orthonormal(5, 3, rng)]
                 for _ in range(9)]
        expect = np.zeros((9, 9))
        for i in range(9):
            for j in range(9):
                if i != j:
                    expect[i, j] = sum(pairwise_distance(bases[i][k], bases[j][k],
                                                         bases[i][k].shape[1])
                                       for k in range(2)) / 2
        d = distance_matrix(bases)
        np.testing.assert_allclose(d, expect, rtol=1e-12, atol=0)
        assert np.array_equal(d, d.T) and np.all(np.diag(d) == 0.0)

    def test_mixed_shapes_and_non_orthonormal_bases_rejected(self):
        u = np.eye(4)
        with pytest.raises(ConfigurationError):
            distance_matrix([[u[:, :2]], [u[:, :3]]])
        with pytest.raises(PreconditionError):
            distance_matrix([[u[:, :2]], [np.ones((4, 2))], [u[:, 2:]]])


class TestAffinity:
    def test_zero_distance_gives_unit_affinity(self):
        d = np.array([[0.0, 0.0, 0.4], [0.0, 0.0, 0.4], [0.4, 0.4, 0.0]])
        s = affinity(d)
        assert s[0, 1] == 1.0

    def test_sigma_distance_value(self):
        # an off-diagonal entry equal to sigma maps to exp(-1/2)
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert median_offdiag_distance(d) == 0.5
        s = affinity(d)
        assert s[0, 1] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        d = rng.uniform(0.1, 0.9, size=(5, 5))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        sigma = float(np.median(d[~np.eye(5, dtype=bool)]))
        s = affinity(d)
        for i in range(5):
            for j in range(5):
                expect = 1.0 if i == j else math.exp(-d[i, j] ** 2 / (2 * sigma ** 2))
                assert s[i, j] == pytest.approx(expect, abs=1e-12)

    def test_degenerate_fallback_all_ones(self):
        d = np.zeros((4, 4))
        assert np.array_equal(affinity(d), np.ones((4, 4)))


class TestSpectralCluster:
    def test_two_exact_blocks(self):
        s = block_affinity([3, 4])
        labels = spectral_cluster(s, 2, seed=0)
        truth = block_labels([3, 4])
        ari, _ = clustering_quality(labels, truth)
        assert ari == 1.0

    def test_three_blocks_with_tiny_bridge(self):
        s = block_affinity([3, 3, 3], off=1e-6)
        labels = spectral_cluster(s, 3, seed=0)
        ari, _ = clustering_quality(labels, block_labels([3, 3, 3]))
        assert ari == 1.0

    def test_k_equals_n(self):
        rng = np.random.default_rng(6)
        d = rng.uniform(0.2, 0.9, size=(5, 5))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        s = affinity(d)
        labels = spectral_cluster(s, 5, seed=0)
        assert len(set(labels.tolist())) == 5

    def test_k_too_large(self):
        with pytest.raises(ConfigurationError):
            spectral_cluster(np.ones((3, 3)), 4)


class TestSelectK:
    def test_three_blocks_by_zero_multiplicity(self):
        s = block_affinity([4, 3, 5])
        k_star, _ = select_k(s, 2, 6)
        assert k_star == 3

    def test_two_blocks(self):
        s = block_affinity([4, 4])
        k_star, _ = select_k(s, 2, 6)
        assert k_star == 2

    def test_noisy_three_blocks_monte_carlo(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            s = block_affinity([4, 4, 4], off=0.05)
            noise = rng.uniform(0.0, 0.03, size=s.shape)
            noise = (noise + noise.T) / 2
            s = np.clip(s + noise, 0.0, 1.0)
            np.fill_diagonal(s, 1.0)
            k_star, _ = select_k(s, 2, 6)
            hits += (k_star == 3)
        assert hits >= 9

    def test_invalid_range(self):
        with pytest.raises(ConfigurationError):
            select_k(np.ones((4, 4)), 2, 4)


class TestLaplacianSpectrum:
    def test_eigenvalues_bounded_and_zero_floor(self):
        rng = np.random.default_rng(7)
        d = rng.uniform(0.1, 1.0, size=(8, 8))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        evals = np.linalg.eigvalsh(laplacian_sym(affinity(d)))
        assert evals[0] == pytest.approx(0.0, abs=1e-9)
        assert np.all(evals >= -1e-9)
        assert np.all(evals <= 2.0 + 1e-9)

    def test_zero_multiplicity_counts_blocks(self):
        for blocks in ([3, 3], [3, 2, 4], [2, 2, 2, 3], [2, 2, 2, 2, 2]):
            s = block_affinity(blocks)
            evals = np.linalg.eigvalsh(laplacian_sym(s))
            assert int(np.sum(evals < 1e-9)) == len(blocks)


def jittered_family_tracker(rng, families=3, per_family=5, p=9, r=2, jitter=0.02):
    tracker = BasisTracker(decay=0.9)
    truth = []
    for f in range(families):
        span = np.zeros((p, r))
        span[f * r:(f + 1) * r, :] = np.eye(r)
        for c in range(per_family):
            i = f * per_family + c
            b = span + jitter * rng.normal(size=(p, r))
            ema_update(tracker, i, b)
            truth.append(f)
    return tracker, np.array(truth)


class TestClusterClients:
    def test_three_orthogonal_families_recovered(self):
        rng = np.random.default_rng(8)
        tracker, truth = jittered_family_tracker(rng)
        assignment = cluster_clients(tracker, 2, 6, seed=0)
        assert assignment.k_star == 3
        ari, nmi = clustering_quality(assignment.labels, truth)
        assert ari == 1.0
        assert nmi == 1.0
        assert not assignment.degenerate

    def test_shared_basis_degenerates_to_one_cluster(self):
        tracker = BasisTracker(decay=0.9)
        b = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        for i in range(5):
            ema_update(tracker, i, b)
        assignment = cluster_clients(tracker, 2, 4, seed=0)
        assert assignment.degenerate
        assert assignment.sigma == 0.0
        assert assignment.k_star == 2  # eigengap ties resolve to k_min
        assert set(assignment.labels.tolist()) == {0}

    def test_missing_client_detected(self):
        rng = np.random.default_rng(9)
        tracker, _ = jittered_family_tracker(rng)
        with pytest.raises(ConfigurationError):
            cluster_clients(tracker, 2, 6, expected_clients=99)

    def test_tiny_federation_single_cluster(self):
        tracker = BasisTracker(decay=0.9)
        ema_update(tracker, 0, np.eye(3)[:, :1])
        ema_update(tracker, 1, np.eye(3)[:, 1:2])
        assignment = cluster_clients(tracker, 2, 4, seed=0)
        assert assignment.k_star == 1
        assert assignment.degenerate


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.intp])
def test_relabel_by_first_appearance_matches_the_loop(dtype):
    rng = np.random.default_rng(17)
    for _ in range(300):
        labels = rng.integers(-3, int(rng.integers(1, 9)), size=int(rng.integers(1, 40)))
        labels = labels.astype(dtype)
        got, want = _relabel_by_first_appearance(labels), relabel_loop(labels)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(4))
def test_lloyd_matches_the_per_center_loop_bitwise(seed):
    # points of 2 to 5 dimensions, as the spectral embedding of k >= 2 gives,
    # some rounded so that distances tie; every other start is drawn wide, so
    # that some clusters start with no members
    rng = np.random.default_rng(seed)
    emptied = 0
    for trial in range(250):
        n, k, dim = int(rng.integers(3, 60)), int(rng.integers(2, 7)), int(rng.integers(2, 6))
        points = rng.normal(size=(n, dim))
        if trial % 3 == 0:
            points = np.round(points, 1)
        centers = rng.normal(size=(k, dim)) * (4.0 if trial % 2 else 1.0)
        start = np.argmin(np.sum((points[:, None] - centers[None]) ** 2, axis=2), axis=1)
        emptied += len(np.unique(start)) < k
        labels, objective = _lloyd(points, centers.copy())
        want_labels, want_objective = lloyd_loop(points, centers.copy())
        assert labels.dtype == want_labels.dtype and np.array_equal(labels, want_labels)
        assert objective == want_objective
    assert emptied > 50
