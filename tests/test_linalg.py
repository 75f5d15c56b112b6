import math

import numpy as np
import pytest

from fedtier.errors import ConfigurationError, PreconditionError
from fedtier.linalg import (_apply_sign_convention, frobenius_norm, matmul,
                            orthonormal_columns, subspace_overlap, truncated_svd)


from oracles import eigh_singular_values, loop_matmul, random_orthonormal, sign_convention_loop


class TestMatmul:
    def test_identity(self):
        m = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_orthogonal_rank1_factors(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(matmul(a, b), np.zeros((2, 2)))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        assert np.max(np.abs(matmul(a, b) - loop_matmul(a, b))) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 2))) == 0.0

    def test_identity(self):
        assert frobenius_norm(np.eye(3)) == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0, abs=1e-15)


class TestTruncatedSvd:
    def test_diagonal(self):
        f = truncated_svd(np.diag([3.0, 1.0]), 1)
        assert np.array_equal(f.singular_values, [3.0])
        assert np.array_equal(f.u, [[1.0], [0.0]])
        assert np.array_equal(f.vt, [[1.0, 0.0]])

    def test_identity_tie_convention(self):
        # equal singular values: LAPACK keeps column 0 first, and the sign
        # convention makes it positive
        f = truncated_svd(np.eye(2), 1)
        assert np.array_equal(f.singular_values, [1.0])
        assert np.array_equal(f.u, [[1.0], [0.0]])

    def test_against_eigh_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 4))
        f = truncated_svd(m, 2)
        sv = eigh_singular_values(m)
        err = frobenius_norm(m - f.reconstruct())
        best = math.sqrt(float(np.sum(sv[2:] ** 2)))
        assert abs(err - best) <= 1e-9

    def test_rank_out_of_range(self):
        with pytest.raises(ConfigurationError):
            truncated_svd(np.zeros((3, 2)), 3)
        with pytest.raises(ConfigurationError):
            truncated_svd(np.zeros((3, 2)), 0)

    @pytest.mark.parametrize("k", [2.0, "2", None, True])
    def test_a_rank_that_is_not_an_integer_is_refused(self, k):
        with pytest.raises(ConfigurationError, match="k must be an integer"):
            truncated_svd(np.eye(3), k)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(5, 7))
        f1 = truncated_svd(m, 3)
        f2 = truncated_svd(m, 3)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.singular_values, f2.singular_values)
        assert np.array_equal(f1.vt, f2.vt)

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p, q = rng.integers(1, 9, size=2)
            k = int(rng.integers(1, min(p, q) + 1))
            f = truncated_svd(rng.normal(size=(p, q)), k)
            assert frobenius_norm(f.u.T @ f.u - np.eye(k)) <= 1e-10
            assert frobenius_norm(f.vt @ f.vt.T - np.eye(k)) <= 1e-10
            assert np.all(np.diff(f.singular_values) <= 0.0)

    def test_rank_deficient_input_still_orthonormal(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0], [0.5, 1.0]])  # rank 1
        f = truncated_svd(m, 2)
        assert frobenius_norm(f.u.T @ f.u - np.eye(2)) <= 1e-10
        assert frobenius_norm(f.reconstruct() - m) <= 1e-10

    def test_zero_matrix(self):
        f = truncated_svd(np.zeros((4, 3)), 2)
        assert np.array_equal(f.singular_values, [0.0, 0.0])
        assert frobenius_norm(f.u.T @ f.u - np.eye(2)) <= 1e-12

    def test_eckart_young_property(self):
        # reconstruction beats 1000 random rank-k competitors
        rng = np.random.default_rng(13)
        for _ in range(3):
            p, q = rng.integers(2, 9, size=2)
            k = int(rng.integers(1, min(p, q) + 1))
            m = rng.normal(size=(p, q))
            ours = frobenius_norm(m - truncated_svd(m, k).reconstruct())
            for _ in range(1000):
                x = rng.normal(size=(p, k)) @ rng.normal(size=(k, q))
                assert ours <= frobenius_norm(m - x) + 1e-9

    def test_norm_identity_with_spectrum(self):
        rng = np.random.default_rng(17)
        m = rng.normal(size=(5, 5))
        f = truncated_svd(m, 5)
        assert frobenius_norm(m) ** 2 == pytest.approx(
            float(np.sum(f.singular_values ** 2)), abs=1e-9)


def _same_bits(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestSignConvention:
    """The one-expression sign convention against the per-pair loop."""

    def test_crafted_factors_match_the_loop_bitwise(self):
        u = np.array([[[0.5, 0.0, -0.3], [-0.5, 0.0, -0.9], [0.1, 0.0, 0.2]],   # +- tie, zero
                      [[-0.5, 0.7, 0.0], [0.5, -0.7, -0.0], [-0.2, 0.1, -1.0]]])  # -+ tie
        vt = np.arange(24.0).reshape(2, 3, 4) - 11.0
        got, want = _apply_sign_convention(u, vt), sign_convention_loop(u, vt)
        assert all(_same_bits(g, w) for g, w in zip(got, want))
        # the tie breaks at the lowest row: +0.5 stays, -0.5 first flips the pair
        assert got[0][0, 0, 0] == 0.5 and got[0][1, 0, 0] == 0.5
        assert np.array_equal(got[0][0, :, 1], np.zeros(3))   # a zero column is kept

    @pytest.mark.parametrize("shape,k", [((6, 4), 1), ((6, 4), 4), ((4, 6), 3), ((1, 5, 3), 2),
                                         ((7, 12, 2), 1), ((5, 12, 2), 2), ((3, 8, 8), 8)])
    def test_truncated_svd_matches_the_loop_bitwise(self, shape, k):
        rng = np.random.default_rng(sum(shape) + k)
        m = rng.normal(size=shape)
        m[..., 0, :] = -np.abs(m[..., 0, :]) * 50.0   # a negative maximum leads every column
        u, sigma, vt = np.linalg.svd(m, full_matrices=False)
        want_u, want_vt = sign_convention_loop(u[..., :k], vt[..., :k, :])
        got = truncated_svd(m, k)
        assert _same_bits(got.u, want_u) and _same_bits(got.vt, want_vt)
        assert _same_bits(got.singular_values, sigma[..., :k])
        assert got.u.flags.c_contiguous and got.vt.flags.c_contiguous

    def test_zero_and_tied_matrices_match_the_loop_bitwise(self):
        m = np.stack([np.zeros((4, 3)), np.eye(4, 3), -np.eye(4, 3),
                      np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                                [0.0, 0.0, 0.0]])])
        u, _, vt = np.linalg.svd(m, full_matrices=False)
        for k in (1, 3):
            want_u, want_vt = sign_convention_loop(u[..., :k], vt[..., :k, :])
            got = truncated_svd(m, k)
            assert _same_bits(got.u, want_u) and _same_bits(got.vt, want_vt)


class TestOrthonormalColumns:
    def test_preserves_column_space(self):
        rng = np.random.default_rng(2)
        m = random_orthonormal(6, 3, rng)
        u = orthonormal_columns(m, 3)
        assert subspace_overlap(u, m) == pytest.approx(3.0, abs=1e-9)

    def test_rank_one_duplicated_column(self):
        e1 = np.array([[1.0], [0.0], [0.0]])
        m = np.hstack([e1, 2 * e1])
        u = orthonormal_columns(m, 1)
        assert np.max(np.abs(np.abs(u) - e1)) <= 1e-12

    def test_matches_oracle_up_to_sign(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(5, 3))
        u = orthonormal_columns(m, 2)
        # oracle left singular vectors via eigh on m m^T
        evals, vecs = np.linalg.eigh(m @ m.T)
        order = np.argsort(evals)[::-1]
        for col in range(2):
            ref = vecs[:, order[col]]
            agree = min(np.max(np.abs(u[:, col] - ref)), np.max(np.abs(u[:, col] + ref)))
            assert agree <= 1e-8


class TestSubspaceOverlap:
    def test_same_basis_gives_rank(self):
        rng = np.random.default_rng(5)
        u = random_orthonormal(7, 3, rng)
        assert subspace_overlap(u, u) == pytest.approx(3.0, abs=1e-12)

    def test_orthogonal_axes(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert subspace_overlap(e1, e2) == 0.0

    def test_forty_five_degrees(self):
        e1 = np.array([[1.0], [0.0]])
        mid = np.array([[1.0], [1.0]]) / math.sqrt(2)
        assert subspace_overlap(e1, mid) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(PreconditionError):
            subspace_overlap(np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]]))

    def test_rejects_row_mismatch(self):
        with pytest.raises(PreconditionError):
            subspace_overlap(np.eye(3)[:, :1], np.eye(2)[:, :1])

    def test_right_rotation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            u1 = random_orthonormal(8, 3, rng)
            u2 = random_orthonormal(8, 2, rng)
            rot = random_orthonormal(3, 3, rng)
            assert subspace_overlap(u1 @ rot, u2) == pytest.approx(
                subspace_overlap(u1, u2), abs=1e-10)


class TestStackedSubspaceOverlap:
    @staticmethod
    def stack(rng, n, p, r):
        return np.stack([random_orthonormal(p, r, rng) for _ in range(n)])

    @pytest.mark.parametrize("n1", [None, 1, 4])
    @pytest.mark.parametrize("n2", [None, 1, 3])
    @pytest.mark.parametrize("r1, r2", [(2, 2), (3, 1)])
    def test_stacks_match_every_pair_of_bases(self, n1, n2, r1, r2):
        # None is one p×r basis, whose axis the result drops
        rng = np.random.default_rng(7)
        u1 = self.stack(rng, n1 or 1, 6, r1)
        u2 = self.stack(rng, n2 or 1, 6, r2)
        got = subspace_overlap(u1[0] if n1 is None else u1, u2[0] if n2 is None else u2)
        want = np.array([[subspace_overlap(a, b) for b in u2] for a in u1])
        if n1 is None and n2 is None:
            assert isinstance(got, float)
        else:
            assert got.shape == ((n1,) if n1 else ()) + ((n2,) if n2 else ())
        want = want[0 if n1 is None else slice(None), 0 if n2 is None else slice(None)]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_a_stack_against_itself_is_bitwise_the_symmetric_product(self):
        # the reference is the distance matrix's overlap formula, written out
        rng = np.random.default_rng(8)
        n, p, r = 9, 7, 2
        u = self.stack(rng, n, p, r)
        flat = u.transpose(0, 2, 1).reshape(n * r, p)
        cross = (flat @ flat.T).reshape(n, r, n, r)
        reference = np.minimum(np.sum(cross * cross, axis=(1, 3)), float(r))
        assert np.array_equal(subspace_overlap(u, u), reference)

    @pytest.mark.parametrize("side", [0, 1])
    def test_a_non_orthonormal_basis_inside_a_stack_is_rejected(self, side):
        rng = np.random.default_rng(9)
        stack = self.stack(rng, 4, 5, 2)
        stack[2] *= 1.01
        args = [self.stack(rng, 3, 5, 2), self.stack(rng, 3, 5, 2)]
        args[side] = stack
        with pytest.raises(PreconditionError,
                           match=r"basis \(entry 2\) columns are not orthonormal"):
            subspace_overlap(*args)

    def test_rejects_a_four_dimensional_stack(self):
        with pytest.raises(PreconditionError, match=r"stack, got \(2, 2, 3, 1\)"):
            subspace_overlap(np.zeros((2, 2, 3, 1)), np.eye(3)[:, :1])
