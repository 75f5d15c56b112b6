import numpy as np
import pytest

from fedtier.errors import ConfigurationError
from fedtier.lora import (AdapterPath, LoraAdapter, Tier, compose_path, delta,
                          dump_adapter, dump_matrix, init_adapter, load_adapter,
                          load_matrix, orth_penalty, orth_penalty_grad, zero_adapter)
from oracles import loop_matmul, random_orthonormal


def rank1(p, q, i, j):
    b = np.zeros((p, 1))
    b[i, 0] = 1.0
    a = np.zeros((1, q))
    a[0, j] = 1.0
    return LoraAdapter(b=b, a=a, rank=1)


class TestDelta:
    def test_zero_b(self):
        ad = LoraAdapter(b=np.zeros((3, 2)), a=np.ones((2, 4)), rank=2)
        assert np.array_equal(delta(ad), np.zeros((3, 4)))

    def test_single_entry(self):
        ad = rank1(3, 4, 0, 0)
        expected = np.zeros((3, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(delta(ad), expected)

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(1)
        ad = LoraAdapter(b=rng.normal(size=(4, 2)), a=rng.normal(size=(2, 3)), rank=2)
        assert np.max(np.abs(delta(ad) - loop_matmul(ad.b, ad.a))) <= 1e-12


class TestAdapterValidation:
    def test_rank_mismatch(self):
        with pytest.raises(ConfigurationError):
            LoraAdapter(b=np.zeros((3, 2)), a=np.zeros((1, 4)), rank=2)

    def test_rank_exceeds_dims(self):
        with pytest.raises(ConfigurationError):
            LoraAdapter(b=np.zeros((2, 3)), a=np.zeros((3, 4)), rank=3)

    def test_path_dimension_agreement(self):
        with pytest.raises(ConfigurationError):
            AdapterPath(root=zero_adapter(3, 4, 1), cluster=zero_adapter(3, 5, 1),
                        leaf=zero_adapter(3, 4, 1))


class TestCascade:
    def test_earlier_lists_the_frozen_tiers_in_cascade_order(self):
        assert [t.earlier for t in Tier] == [[], [Tier.ROOT], [Tier.ROOT, Tier.CLUSTER]]

    @pytest.mark.parametrize("call", ["adapter", "replace"])
    def test_a_non_tier_is_rejected(self, call):
        path = AdapterPath(root=zero_adapter(2, 3, 1), cluster=zero_adapter(2, 3, 1),
                           leaf=zero_adapter(2, 3, 1))
        args = ("root",) if call == "adapter" else ("root", zero_adapter(2, 3, 1))
        with pytest.raises(ConfigurationError, match="unknown tier"):
            getattr(path, call)(*args)


class TestComposePath:
    def test_all_zero_returns_base(self):
        path = AdapterPath(root=zero_adapter(2, 3, 1), cluster=zero_adapter(2, 3, 1),
                           leaf=zero_adapter(2, 3, 1))
        w0 = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(compose_path(path, w0), w0)

    def test_zero_leaf_equals_root_plus_cluster(self):
        rng = np.random.default_rng(2)
        root = LoraAdapter(b=rng.normal(size=(2, 1)), a=rng.normal(size=(1, 3)), rank=1)
        cluster = LoraAdapter(b=rng.normal(size=(2, 1)), a=rng.normal(size=(1, 3)), rank=1)
        path = AdapterPath(root=root, cluster=cluster, leaf=zero_adapter(2, 3, 1))
        w0 = rng.normal(size=(2, 3))
        expect = w0 + delta(root) + delta(cluster)
        assert np.array_equal(compose_path(path, w0), expect)

    def test_disjoint_rank_one_sum(self):
        path = AdapterPath(root=rank1(3, 3, 0, 0), cluster=rank1(3, 3, 1, 1),
                           leaf=rank1(3, 3, 2, 2))
        out = compose_path(path, np.zeros((3, 3)))
        # entrywise oracle: a 1 at each disjoint coordinate
        assert np.array_equal(out, np.eye(3))
        assert np.linalg.matrix_rank(out) == 3

    def test_base_shape_mismatch(self):
        path = AdapterPath(root=zero_adapter(2, 3, 1), cluster=zero_adapter(2, 3, 1),
                           leaf=zero_adapter(2, 3, 1))
        with pytest.raises(ConfigurationError):
            compose_path(path, np.zeros((3, 3)))

    def test_linearity_in_each_delta(self):
        rng = np.random.default_rng(3)
        leaf = LoraAdapter(b=rng.normal(size=(2, 1)), a=rng.normal(size=(1, 3)), rank=1)
        half = LoraAdapter(b=0.5 * leaf.b, a=leaf.a, rank=1)
        base = AdapterPath(root=zero_adapter(2, 3, 1), cluster=zero_adapter(2, 3, 1),
                           leaf=zero_adapter(2, 3, 1))
        w0 = rng.normal(size=(2, 3))
        full = compose_path(base.replace(Tier.LEAF, leaf), w0)
        mid = compose_path(base.replace(Tier.LEAF, half), w0)
        assert np.allclose(mid, 0.5 * (w0 + full), atol=1e-12)


class TestOrthPenalty:
    def test_orthogonal_columns(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert orth_penalty(e1, e2) == 0.0

    def test_identical_unit_column(self):
        e1 = np.array([[1.0], [0.0]])
        assert orth_penalty(e1, e1) == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        bf = rng.normal(size=(5, 2))
        ba = rng.normal(size=(5, 2))
        cross = bf.T @ ba
        expect = sum(cross[s, t] ** 2 for s in range(2) for t in range(2))
        assert orth_penalty(bf, ba) == pytest.approx(expect, rel=1e-12)

    def test_symmetric_for_orthonormal_bases(self):
        rng = np.random.default_rng(5)
        u1 = random_orthonormal(6, 2, rng)
        u2 = random_orthonormal(6, 3, rng)
        assert orth_penalty(u1, u2) == pytest.approx(orth_penalty(u2, u1), abs=1e-12)


class TestOrthPenaltyGrad:
    def test_orthogonal_gives_zero(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert np.array_equal(orth_penalty_grad(e1, e2), np.zeros((2, 1)))

    def test_unit_self(self):
        e1 = np.array([[1.0], [0.0]])
        assert np.array_equal(orth_penalty_grad(e1, e1), 2.0 * e1)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        bf = rng.normal(size=(4, 2))
        ba = rng.normal(size=(4, 3))
        grad = orth_penalty_grad(bf, ba)
        h = 1e-5
        fd = np.zeros_like(ba)
        for i in range(4):
            for j in range(3):
                up = ba.copy()
                up[i, j] += h
                dn = ba.copy()
                dn[i, j] -= h
                fd[i, j] = (orth_penalty(bf, up) - orth_penalty(bf, dn)) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(grad - fd)) / scale <= 1e-6


class TestInitAndSerialization:
    def test_init_starts_at_zero_update(self):
        ad = init_adapter(4, 6, 2, np.random.default_rng(0))
        assert np.array_equal(delta(ad), np.zeros((4, 6)))
        assert np.any(ad.a != 0.0)

    def test_adapter_roundtrip_exact(self):
        rng = np.random.default_rng(7)
        ad = LoraAdapter(b=rng.normal(size=(3, 2)), a=rng.normal(size=(2, 5)), rank=2)
        back = load_adapter(dump_adapter(ad))
        assert np.array_equal(back.b, ad.b)
        assert np.array_equal(back.a, ad.a)
        assert back.rank == ad.rank

    def test_matrix_roundtrip_exact(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 3)) * 1e-7
        assert np.array_equal(load_matrix(dump_matrix(m)), m)



BAD_MATRIX_DUMPS = {
    "empty": "",
    "blank_lines_only": "  \n\n",
    "non_integer_header": "2.5 1\n1\n2\n",
    "non_numeric_header": "x y\n",
    "short_header": "2\n1 2\n",
    "negative_header": "-1 2\n",
    "ragged_rows": "2 2\n1 2\n3\n",
    "too_few_rows": "3 2\n1 2\n3 4\n",
    "too_many_rows": "1 2\n1 2\n3 4\n",
    "non_numeric_entry": "1 2\n1 abc\n",
    "non_finite_entry": "1 2\n1 nan\n",
}

BAD_ADAPTER_DUMPS = {
    "empty": "",
    "non_integer_header": "3 4 1.0\n1\n2\n3\n1 2 3 4\n",
    "short_header": "3 4\n1\n2\n3\n1 2 3 4\n",
    "ragged_b_rows": "3 4 1\n1\n2 2\n3\n1 2 3 4\n",
    "ragged_a_row": "3 4 1\n1\n2\n3\n1 2 3\n",
    "too_few_rows": "3 4 1\n1\n2\n3\n",
    "non_finite_entry": "3 4 1\n1\n2\n3\n1 2 3 inf\n",
}


class TestMalformedDumps:
    @pytest.mark.parametrize("text", BAD_MATRIX_DUMPS.values(), ids=BAD_MATRIX_DUMPS.keys())
    def test_load_matrix_raises_configuration_error(self, text):
        with pytest.raises(ConfigurationError):
            load_matrix(text)

    @pytest.mark.parametrize("text", BAD_ADAPTER_DUMPS.values(), ids=BAD_ADAPTER_DUMPS.keys())
    def test_load_adapter_raises_configuration_error(self, text):
        with pytest.raises(ConfigurationError):
            load_adapter(text)
