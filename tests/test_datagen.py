import math

import numpy as np
import pytest

from fedtier.datagen import (ClusterShift, GlDir, LabeledPool, Patho, ScDir, gen_pool,
                             load_csv, partition, split_unseen)
from fedtier.errors import ConfigurationError, GenerationError
from fedtier.lora import AdapterPath, LoraAdapter, zero_adapter
from fedtier.model import SgdConfig, Tier, build_model, forward, local_update
from fedtier.streams import stream


def client_labels(client):
    return np.concatenate([client.train.y, client.test.y])


def label_histogram(client, class_count):
    return np.bincount(client_labels(client), minlength=class_count)


class TestGenPool:
    def test_deterministic_per_seed(self):
        a = gen_pool(4, 3, 10, 2.0, seed=42)
        b = gen_pool(4, 3, 10, 2.0, seed=42)
        assert np.array_equal(a.class_means, b.class_means)
        assert np.array_equal(a.samples.x, b.samples.x)
        assert np.array_equal(a.samples.y, b.samples.y)

    @pytest.mark.parametrize("separation", [math.nan, math.inf])
    def test_non_finite_separation_rejected(self, separation):
        with pytest.raises(ConfigurationError, match="separation"):
            gen_pool(4, 3, 10, separation, seed=1)

    def test_zero_separation_collapses_means(self):
        pool = gen_pool(5, 4, 3, 0.0, seed=1)
        assert np.array_equal(pool.class_means, np.zeros((5, 4)))

    def test_every_class_represented(self):
        pool = gen_pool(6, 2, 7, 1.0, seed=2)
        assert np.array_equal(np.unique(pool.samples.y), np.arange(6))
        assert len(pool.samples) == 42

    def test_separated_pool_is_learnable(self):
        # C=2, strong separation: a trained head hits >= 0.99 train accuracy
        pool = gen_pool(2, 5, 30, 10.0, seed=3)
        model = build_model(feature_dim=5, class_count=2, hidden_dim=8, seed=4)
        rng = np.random.default_rng(5)
        path = AdapterPath(root=LoraAdapter(b=np.zeros((2, 2)),
                                            a=0.01 * rng.normal(size=(2, 8)), rank=2),
                           cluster=zero_adapter(2, 8, 2), leaf=zero_adapter(2, 8, 2))
        trained = local_update(model, path, pool.samples, Tier.ROOT,
                               opt=SgdConfig(lr=0.5, epochs=200))
        final = path.replace(Tier.ROOT, trained)
        preds = [int(np.argmax(forward(model, final, x))) for x in pool.samples.x]
        acc = float(np.mean(np.array(preds) == pool.samples.y))
        assert acc >= 0.99


class TestGlDir:
    def test_histograms_match_reference_sampler(self):
        # straightforward Dirichlet-then-multinomial reimplementation, same
        # sub-stream as the implementation's first attempt
        c, n_clients, seed = 10, 20, 11
        pool = gen_pool(c, 4, 200, 2.0, seed=7)
        fed = partition(pool, GlDir(alpha=0.3), n_clients, seed=seed)
        n_each = len(pool.samples) // (2 * n_clients)
        rng = stream(seed, "partition", 0)
        priors = rng.dirichlet(np.full(c, 0.3), size=n_clients)
        counts = np.stack([rng.multinomial(n_each, priors[i]) for i in range(n_clients)])
        # the oracle draw must itself be feasible, otherwise attempt 0 was skipped
        assert np.all(counts.sum(axis=0) <= 200)
        for i, client in enumerate(fed.clients):
            assert np.array_equal(label_histogram(client, c), counts[i])

    def test_high_alpha_is_uniform_within_3_sigma(self):
        c, n_clients = 10, 8
        pool = gen_pool(c, 3, 400, 1.0, seed=9)
        fed = partition(pool, GlDir(alpha=1e6), n_clients, seed=0)
        n_each = len(pool.samples) // (2 * n_clients)
        sigma = math.sqrt(n_each * (1 / c) * (1 - 1 / c))
        for client in fed.clients:
            hist = label_histogram(client, c)
            assert np.all(np.abs(hist - n_each / c) <= 3 * sigma)

    def test_priors_are_probability_vectors(self):
        pool = gen_pool(6, 3, 100, 1.0, seed=1)
        fed = partition(pool, GlDir(alpha=0.5), 5, seed=2)
        assert fed.label_priors is not None
        assert np.all(fed.label_priors >= 0)
        assert np.allclose(fed.label_priors.sum(axis=1), 1.0, atol=1e-12)

    def test_conservation_and_no_double_assignment(self):
        pool = gen_pool(8, 3, 150, 1.0, seed=3)
        n_clients = 10
        fed = partition(pool, GlDir(alpha=0.4), n_clients, seed=4)
        n_each = len(pool.samples) // (2 * n_clients)
        rows = np.concatenate([np.concatenate([c.train.x, c.test.x]) for c in fed.clients])
        assert len(rows) == n_clients * n_each
        assert len(np.unique(rows, axis=0)) == len(rows)  # drawn without replacement

    def test_train_test_disjoint_and_ratio(self):
        pool = gen_pool(5, 3, 200, 1.0, seed=5)
        fed = partition(pool, GlDir(alpha=1.0), 6, seed=6)
        for client in fed.clients:
            n = len(client.train) + len(client.test)
            assert len(client.train) == min(max(int(round(0.8 * n)), 1), n - 1)
            rows = np.concatenate([client.train.x, client.test.x])
            assert len(np.unique(rows, axis=0)) == n

    @pytest.mark.parametrize("spec", [GlDir(math.nan), GlDir(math.inf), ScDir(math.nan),
                                      ScDir(math.inf)],
                             ids=["gl_dir_nan", "gl_dir_inf", "sc_dir_nan", "sc_dir_inf"])
    def test_non_finite_alpha_rejected(self, spec):
        pool = gen_pool(4, 2, 50, 1.0, seed=7)
        with pytest.raises(ConfigurationError, match="alpha"):
            partition(pool, spec, 4, seed=8)

    def test_pool_too_small(self):
        pool = gen_pool(4, 2, 5, 1.0, seed=7)
        with pytest.raises(GenerationError):
            partition(pool, GlDir(alpha=1.0), 10, seed=8)


class TestScDir:
    def test_priors_uniform_within_superclass(self):
        pool = gen_pool(20, 3, 100, 1.0, seed=10)
        fed = partition(pool, ScDir(alpha=3.0), 5, seed=11)
        # default map: 10 superclasses of 2 classes; paired classes share priors
        for row in fed.label_priors:
            for sc in range(10):
                block = row[2 * sc: 2 * sc + 2]
                assert block[0] == pytest.approx(block[1], abs=1e-15)

    def test_custom_superclass_map(self):
        pool = gen_pool(4, 3, 120, 1.0, seed=12)
        fed = partition(pool, ScDir(alpha=2.0, superclass_of=(0, 0, 1, 1)), 4, seed=13)
        assert np.allclose(fed.label_priors.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_bad_map(self):
        pool = gen_pool(4, 3, 120, 1.0, seed=12)
        with pytest.raises(ConfigurationError):
            partition(pool, ScDir(alpha=2.0, superclass_of=(0, 0, 1)), 4, seed=13)

    @pytest.mark.parametrize("superclass_of", [
        (0, 0, 1, 1, 2, 4),        # superclass 3 holds no class: its mass would vanish
        (1, 1, 2, 2, 3, 3),        # ids must start at 0
        (0, 0, -1, 1, 1, 2),
        (0, 0.5, 1, 1, 2, 2),
    ], ids=["gap", "starts_at_1", "negative", "fractional"])
    def test_superclass_ids_must_be_0_to_s_minus_1_each_used(self, superclass_of):
        pool = gen_pool(6, 3, 120, 1.0, seed=12)
        with pytest.raises(ConfigurationError, match="superclass ids"):
            partition(pool, ScDir(alpha=1.0, superclass_of=superclass_of), 4, seed=13)


class TestPatho:
    def test_exact_label_count_per_client(self):
        # structural property: exactly 10 distinct labels per client
        pool = gen_pool(100, 2, 20, 1.0, seed=14)
        fed = partition(pool, Patho(classes_per_client=10), 10, seed=15)
        for client in fed.clients:
            assert len(np.unique(client_labels(client))) == 10

    def test_rejects_too_many_classes(self):
        pool = gen_pool(4, 2, 50, 1.0, seed=16)
        with pytest.raises(ConfigurationError):
            partition(pool, Patho(classes_per_client=5), 3, seed=17)

    def test_rejects_zero_classes_per_client(self):
        pool = gen_pool(4, 2, 50, 1.0, seed=16)
        with pytest.raises(ConfigurationError):
            partition(pool, Patho(classes_per_client=0), 3, seed=17)


class TestClusterShift:
    def test_same_group_shares_support(self):
        pool = gen_pool(9, 4, 200, 1.0, seed=18)
        fed = partition(pool, ClusterShift(k_true=3, rotation_angle=1.0,
                                           label_subset_size=3), 9, seed=19)
        truth = fed.true_clusters
        assert truth is not None
        supports = [frozenset(client_labels(c).tolist()) for c in fed.clients]
        for g in range(3):
            group_supports = {supports[i] for i in range(9) if truth[i] == g}
            assert len(group_supports) == 1
        all_group = {frozenset.union(*(supports[i] for i in range(9) if truth[i] == g))
                     for g in range(3)}
        assert len(all_group) == 3  # disjoint subsets -> groups differ in support

    def test_rotation_changes_features(self):
        pool = gen_pool(6, 4, 200, 0.0, seed=20)
        fed = partition(pool, ClusterShift(k_true=2, rotation_angle=math.pi / 2,
                                           label_subset_size=3), 4, seed=21)
        # rotation preserves norms but moves points
        client = fed.clients[0]
        norms = np.linalg.norm(client.train[:5].x, axis=1)
        assert np.all(np.isfinite(norms))

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_non_finite_rotation_angle_rejected(self, angle):
        pool = gen_pool(4, 3, 100, 1.0, seed=22)
        with pytest.raises(ConfigurationError, match="rotation_angle"):
            partition(pool, ClusterShift(2, angle, 2), 4, seed=23)

    def test_needs_two_feature_dims(self):
        pool = gen_pool(4, 1, 100, 1.0, seed=22)
        with pytest.raises(ConfigurationError):
            partition(pool, ClusterShift(2, 1.0, 2), 4, seed=23)


def count_default_rng(monkeypatch) -> list:
    """Record every numpy.random.default_rng call from here on."""
    calls, real = [], np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return calls


class TestLabelSubsetFeasibility:
    @pytest.mark.parametrize("spec", [ClusterShift(3, 1.0, 1), Patho(1)],
                             ids=["cluster_shift", "patho"])
    def test_infeasible_spec_fails_before_any_attempt(self, monkeypatch, spec):
        # 9 rows per class can never give a client 10: no class order helps
        calls = count_default_rng(monkeypatch)
        pool = gen_pool(100, 2, 9, 1.0, seed=0)
        with pytest.raises(GenerationError, match="floor of 10"):
            partition(pool, spec, 90, seed=0)
        assert len(calls) == 1  # gen_pool's own stream; partition draws none

    def test_unequal_class_sizes_keep_the_retry_loop(self, monkeypatch):
        # whichever client is dealt the 5-row class falls under the floor
        full = gen_pool(4, 2, 20, 1.0, seed=1)
        keep = (full.samples.y != 0) | (np.arange(len(full.samples)) < 5)
        pool = LabeledPool(full.samples[keep], 4, 2, full.class_means)
        calls = count_default_rng(monkeypatch)
        with pytest.raises(GenerationError, match="100 attempts"):
            partition(pool, Patho(1), 4, seed=2)
        assert len(calls) == 100


def _pool4():
    return gen_pool(4, 3, 60, 1.0, seed=3)


# library calls with a wrongly typed argument: (call, the argument the error names)
LIBRARY_TYPE_ERRORS = {
    "gen_pool_fractional_class_count": (lambda: gen_pool(2.5, 2, 40, 1.0, seed=0),
                                        "class_count"),
    "gen_pool_fractional_seed": (lambda: gen_pool(2, 2, 40, 1.0, seed=1.5), "seed"),
    "partition_fractional_n_clients": (lambda: partition(_pool4(), Patho(2), 2.5, seed=0),
                                       "n_clients"),
    "patho_fractional_classes_per_client": (
        lambda: partition(_pool4(), Patho(1.5), 2, seed=0), "classes_per_client"),
    "cluster_shift_fractional_k_true": (
        lambda: partition(_pool4(), ClusterShift(2.5, 1.0, 3), 4, seed=0), "k_true"),
    "sc_dir_ragged_map": (
        lambda: partition(_pool4(), ScDir(1.0, ((0, 1), 1, 0, 0)), 4, seed=0),
        "superclass_of"),
    "split_unseen_fractional_seed": (
        lambda: split_unseen(partition(_pool4(), GlDir(1.0), 4, seed=0), 0.5, seed=0.5),
        "seed"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_TYPE_ERRORS))
def test_wrongly_typed_argument_is_a_configuration_error(case):
    call, name = LIBRARY_TYPE_ERRORS[case]
    with pytest.raises(ConfigurationError, match=name):
        call()


class TestSplitUnseen:
    def test_counts(self):
        pool = gen_pool(6, 3, 300, 1.0, seed=24)
        fed = partition(pool, GlDir(alpha=1.0), 30, seed=25)
        out = split_unseen(fed, 0.2, seed=26)
        assert len(out.unseen) == 6
        assert out.n_clients == 24

    def test_deterministic(self):
        pool = gen_pool(6, 3, 300, 1.0, seed=24)
        fed = partition(pool, GlDir(alpha=1.0), 20, seed=25)
        a = split_unseen(fed, 0.25, seed=27)
        b = split_unseen(fed, 0.25, seed=27)
        assert [id(c) for c in a.unseen] == [id(c) for c in b.unseen]

    def test_every_true_cluster_keeps_a_participant(self):
        pool = gen_pool(9, 4, 300, 1.0, seed=28)
        fed = partition(pool, ClusterShift(k_true=3, rotation_angle=1.0,
                                           label_subset_size=3), 10, seed=29)
        for seed in range(100):
            out = split_unseen(fed, 0.2, seed=seed)
            kept = set(int(g) for g in out.true_clusters)
            assert kept == {0, 1, 2}

    def test_invalid_fraction(self):
        pool = gen_pool(4, 3, 100, 1.0, seed=30)
        fed = partition(pool, GlDir(alpha=1.0), 4, seed=31)
        with pytest.raises(ConfigurationError):
            split_unseen(fed, 1.0, seed=32)

    def test_too_few_kept_clients_for_the_groups_fail_before_any_draw(self, caplog,
                                                                       monkeypatch):
        # 10 clients in 3 groups at 0.75 keep 2: no draw can keep every group
        pool = gen_pool(9, 4, 300, 1.0, seed=28)
        fed = partition(pool, ClusterShift(k_true=3, rotation_angle=1.0,
                                           label_subset_size=3), 10, seed=29)
        calls = count_default_rng(monkeypatch)
        with pytest.raises(GenerationError,
                           match="keeps 2 of 10 clients, fewer than the 3 true clusters"):
            split_unseen(fed, 0.75, seed=0)
        assert calls == [] and caplog.records == []

    def test_the_most_held_out_that_keeps_every_group_still_splits(self):
        pool = gen_pool(9, 4, 300, 1.0, seed=28)
        fed = partition(pool, ClusterShift(k_true=3, rotation_angle=1.0,
                                           label_subset_size=3), 10, seed=29)
        out = split_unseen(fed, 0.7, seed=0)
        assert out.n_clients == 3 and sorted(out.true_clusters) == [0, 1, 2]

    def test_holding_out_every_client_is_a_configuration_error(self):
        pool = gen_pool(4, 3, 300, 1.0, seed=30)
        fed = partition(pool, GlDir(alpha=1.0), 10, seed=31)
        with pytest.raises(ConfigurationError, match="holds out all 10 clients"):
            split_unseen(fed, 0.95, seed=0)

    def test_each_resampled_attempt_logs_one_warning(self, caplog):
        # keeping 3 of 10 clients in 3 groups fails on most draws; the
        # attempts that fail are read off the split's own streams
        pool = gen_pool(9, 4, 300, 1.0, seed=28)
        fed = partition(pool, ClusterShift(k_true=3, rotation_angle=1.0,
                                           label_subset_size=3), 10, seed=29)
        truth, failed = fed.true_clusters, []
        while True:
            chosen = stream(9, "unseen_split", len(failed)).choice(10, size=7, replace=False)
            if len(set(np.delete(truth, chosen).tolist())) == 3:
                break
            failed.append(len(failed))
        assert len(failed) >= 2
        with caplog.at_level("WARNING", logger="fedtier.datagen"):
            split_unseen(fed, 0.7, seed=9)
        assert [r.getMessage() for r in caplog.records] == [
            f"unseen split attempt {k} emptied a true cluster; resampling" for k in failed]

    def test_kept_clients_keep_their_label_priors_in_order(self):
        pool = gen_pool(10, 3, 300, 1.0, seed=24)
        fed = partition(pool, GlDir(alpha=0.5), 20, seed=25)
        out = split_unseen(fed, 0.25, seed=1)
        kept = [[id(c) for c in fed.clients].index(id(c)) for c in out.clients]
        assert fed.label_priors.shape == (20, 10) and kept == sorted(kept)
        assert np.array_equal(out.label_priors, fed.label_priors[kept])
        shifted = partition(pool, ClusterShift(2, 1.0, 3), 8, seed=25)
        assert split_unseen(shifted, 0.25, seed=1).label_priors is None


class TestCsvIngestion:
    def test_roundtrip(self, tmp_path):
        rows = ["client_id,label,f0,f1"]
        rng = np.random.default_rng(33)
        for cid in range(3):
            for _ in range(12):
                x = rng.normal(size=2)
                rows.append(f"{cid},{int(rng.integers(4))},{float(x[0])!r},{float(x[1])!r}")
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows) + "\n")
        fed = load_csv(path, seed=1)
        assert fed.n_clients == 3
        assert fed.class_count == 4
        assert fed.feature_dim == 2
        assert all(len(c.train) + len(c.test) == 12 for c in fed.clients)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_its_line(self, tmp_path, bad):
        path = tmp_path / "data.csv"
        path.write_text("client_id,label,f0,f1\n0,1,0.5,0.25\n0,0,1.5,0.75\n"
                        f"1,1,0.5,{bad}\n1,0,2.0,1.0\n")
        with pytest.raises(ConfigurationError, match="line 4"):
            load_csv(path)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,0.5\n")
        with pytest.raises(ConfigurationError):
            load_csv(path)
