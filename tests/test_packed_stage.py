"""The stage engine holds a stage's groups as arrays. These tests pin it to
the public per-adapter API bit for bit, check the stacked forms of the
server-side rules against their one-matrix forms, check that a run encodes
its train rows once into the one stack all three stages and the metrics
read, and check that a diverging run still fails with a typed error."""

import json
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import fedtier.adaptation
import fedtier.federation
import fedtier.metrics
import fedtier.model
from fedtier import (ClusterShift, FederationConfig, build_model, compute_metrics, gen_pool,
                     partition)
from fedtier.cli import main
from fedtier.clustering import BasisTracker, ClusterAssignment, ema_update
from fedtier.datagen import ClientSplit, FederationData
from fedtier.errors import ConfigurationError
from fedtier.federation import (StageReport, aggregate_product, refactor, run_cluster_stage,
                                run_leaf_stage, run_protocol, run_root_stage, stop_check,
                                weights_root)
from fedtier.linalg import frobenius_norm, truncated_svd
from fedtier.lora import (AdapterPath, LoraAdapter, Tier, delta, init_adapter,
                          zero_adapter)
from fedtier.model import ClientStack, SgdConfig, dataset_loss, local_update
from fedtier.streams import stream

# uneven train sizes, some below the batch size of 8, so clients sit out steps
TRAIN_SIZES = [22, 9, 17, 4, 21, 13, 20, 6, 15]
LABELS = [0, 1, 2, 0, 1, 2, 0, 0, 1]          # clusters of 4, 3 and 2 members


@pytest.fixture(scope="module")
def federation():
    pool = gen_pool(class_count=6, feature_dim=5, per_class=40, separation=3.0, seed=3)
    data = partition(pool, ClusterShift(k_true=3, rotation_angle=np.pi / 2,
                                        label_subset_size=2), n_clients=9, seed=3)
    return FederationData(clients=[ClientSplit(train=c.train[:n], test=c.test)
                                   for c, n in zip(data.clients, TRAIN_SIZES)],
                          class_count=6, feature_dim=5)


def assignment():
    n = len(LABELS)
    return ClusterAssignment(k_star=3, labels=np.array(LABELS), eigengaps=np.zeros(1),
                             k_range=(2, 3), sigma=1.0, eigenvalues=np.zeros(3),
                             distances=np.zeros((n, n)), affinities=np.zeros((n, n)),
                             degenerate=False)


def reference_stage(config, model, data, active, described, tracker=None):
    """Each group alone, each member updated alone: one AdapterPath per
    local_update, then aggregate_product and refactor (server tiers),
    stop_check, and the round loss of the composed path."""
    c, h = model.w0.shape
    opt = SgdConfig(lr=config.lr, epochs=1 if active is Tier.LEAF else config.local_epochs,
                    batch_mode=config.batch_mode,
                    batch_size=min(config.batch_size, max(len(c.train) for c in data.clients)))
    gammas = [config.gamma_c, config.gamma_l][:len(active.earlier)]
    adapters, reports = [], []
    for index, members, frozen, labels in described:
        init = init_adapter(c, h, config.rank,
                            stream(config.master_seed, f"{active.value}_init", index))
        path = AdapterPath(*frozen, init, *[zero_adapter(c, h, config.rank)] * (2 - len(frozen)))
        weights = weights_root([len(data.clients[i].train) for i in members])
        rngs = {i: stream(config.master_seed, f"{active.value}_shuffle", i) for i in members}
        report = StageReport(active.value, [], [], 0, "budget", *labels)
        prev = delta(init)
        for _ in range(getattr(config, f"t_{active.value}")):
            local = [local_update(model, path, data.clients[i].train, active,
                                  [path.adapter(t).b for t in active.earlier], gammas,
                                  opt=opt, rng=rngs[i]) for i in members]
            if active is Tier.LEAF:
                adapter, new = local[0], delta(local[0])
            else:
                for i, ad in zip(members, local):
                    if tracker is not None:
                        ema_update(tracker, i, ad.b)
                new = aggregate_product(local, weights)
                adapter = refactor(new, config.rank)
            path = path.replace(active, adapter)
            stopped, rho = stop_check(prev, new, config.tau_rel, config.eps)
            prev = new
            report.rho.append(rho)
            report.rounds += 1
            report.weighted_loss.append(float(sum(
                w * dataset_loss(model, path, data.clients[i].train)
                for w, i in zip(weights, members))))
            if stopped:
                report.stop_reason = "criterion"
                break
        adapters.append(path.adapter(active))
        reports.append(report)
    return adapters, reports


def assert_bitwise(adapters, reports, ref_adapters, ref_reports):
    assert len(adapters) == len(ref_adapters)
    for ad, ref in zip(adapters, ref_adapters):
        assert np.array_equal(ad.b, ref.b) and np.array_equal(ad.a, ref.a)
    for rep, ref in zip(reports, ref_reports, strict=True):
        assert (rep.stage, rep.cluster, rep.client) == (ref.stage, ref.cluster, ref.client)
        assert rep.rho == ref.rho and rep.weighted_loss == ref.weighted_loss
        assert (rep.rounds, rep.stop_reason) == (ref.rounds, ref.stop_reason)


@pytest.mark.parametrize("tau_rel", [1e-3, 0.3], ids=["budget", "stops"])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("batch_mode", ["full", "mini"])
def test_packed_stages_match_the_per_group_public_loop_bitwise(federation, batch_mode,
                                                               workers, tau_rel):
    config = FederationConfig(n_clients=9, rank=2, t_root=8, t_cluster=8, t_leaf=8,
                              total_budget=24, lr=0.5, local_epochs=2, batch_mode=batch_mode,
                              batch_size=8, master_seed=5, hidden_dim=10, tau_rel=tau_rel,
                              workers=workers)
    model = build_model(5, 6, config.hidden_dim, config.master_seed)
    clusters_of = assignment()
    tracker, ref_tracker = BasisTracker(0.9), BasisTracker(0.9)

    root, report = run_root_stage(config, federation, model, tracker)
    [ref_root], ref_reports = reference_stage(config, model, federation, Tier.ROOT,
                                              [(0, range(9), (), ())], ref_tracker)
    assert_bitwise([root], [report], [ref_root], ref_reports)
    assert sorted(tracker.bases) == sorted(ref_tracker.bases) == list(range(9))
    assert all(np.array_equal(tracker.bases[i], ref_tracker.bases[i]) for i in range(9))
    stage_reports = [[report]]

    clusters, reports = run_cluster_stage(config, federation, model, clusters_of, root)
    ref_clusters, ref_reports = reference_stage(
        config, model, federation, Tier.CLUSTER,
        [(j, clusters_of.members(j), (root,), (j,)) for j in clusters_of.cluster_ids])
    assert_bitwise([clusters[j] for j in clusters_of.cluster_ids], reports,
                   ref_clusters, ref_reports)
    stage_reports.append(reports)

    leaves, reports = run_leaf_stage(config, federation, model, root, clusters, clusters_of)
    ref_leaves, ref_reports = reference_stage(
        config, model, federation, Tier.LEAF,
        [(i, [i], (root, clusters[j]), (j, i)) for i, j in enumerate(LABELS)])
    assert_bitwise(leaves, reports, ref_leaves, ref_reports)
    stage_reports.append(reports)

    if tau_rel == 0.3:
        # groups retire in different rounds, so the engine repacks the rest
        assert all(r.stop_reason == "criterion" for r in stage_reports[0])
        for reps in stage_reports[1:]:
            assert len({r.rounds for r in reps}) > 1
            assert any(r.stop_reason == "criterion" for r in reps)
    else:
        assert all(r.stop_reason == "budget" for reps in stage_reports for r in reps)


def test_many_chunk_threads_writing_one_member_stack_change_no_bit(federation):
    # one chunk per client, more threads than cores, switching often: each
    # thread writes its own slice of the members' factors in place
    config = FederationConfig(n_clients=9, rank=2, t_root=3, t_cluster=3, t_leaf=3,
                              total_budget=9, lr=0.5, batch_mode="mini", batch_size=8,
                              master_seed=5, hidden_dim=10)
    alone = run_protocol(config, federation)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(1) as runner:
            crowded = runner.submit(run_protocol, replace(config, workers=9),
                                    federation).result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    for one, other in zip(alone.clients, crowded.clients, strict=True):
        for tier in Tier:
            assert np.array_equal(one.path.adapter(tier).b, other.path.adapter(tier).b)
            assert np.array_equal(one.path.adapter(tier).a, other.path.adapter(tier).a)
    assert [r.weighted_loss for r in alone.reports] == [r.weighted_loss for r in crowded.reports]


@pytest.mark.parametrize("shape", [(6, 1), (7, 10)], ids=["one_column", "wrong_p"])
def test_frozen_adapters_of_another_shape_are_refused_typed(federation, shape):
    # a (6, 1) root is a valid rank-1 adapter that numpy would broadcast
    # over the (6, 10) base weight's columns
    config = FederationConfig(n_clients=9, rank=1, t_root=2, t_cluster=2, t_leaf=2,
                              total_budget=6, master_seed=5, hidden_dim=10)
    model = build_model(5, 6, config.hidden_dim, config.master_seed)
    assert model.w0.shape == (6, 10)
    rng = np.random.default_rng(0)
    bad = LoraAdapter(b=rng.normal(size=(shape[0], 1)), a=rng.normal(size=(1, shape[1])),
                      rank=1)
    good = init_adapter(6, 10, 1, rng)
    clusters_of = assignment()
    with pytest.raises(ConfigurationError, match="disagree on dimensions"):
        run_cluster_stage(config, federation, model, clusters_of, bad)
    with pytest.raises(ConfigurationError, match="disagree on dimensions"):
        run_leaf_stage(config, federation, model, good, {0: good, 1: bad, 2: good}, clusters_of)


@pytest.mark.parametrize("labels, message", [
    (LABELS[:-2], "holds 7 labels for n_clients=9 clients"),
    (LABELS + [1, 2], "holds 11 labels for n_clients=9 clients"),
    ([-1] + LABELS[1:], "cluster label -1 is negative"),
], ids=["fewer", "more", "negative"])
@pytest.mark.parametrize("stage", ["cluster", "leaf"])
def test_an_assignment_must_label_every_client_exactly_once(federation, stage, labels,
                                                           message):
    config = FederationConfig(n_clients=9, rank=2, t_root=2, t_cluster=2, t_leaf=2,
                              total_budget=6, master_seed=5, hidden_dim=10)
    model = build_model(5, 6, config.hidden_dim, config.master_seed)
    root = init_adapter(6, 10, 2, np.random.default_rng(0))
    bad = replace(assignment(), labels=np.array(labels))
    with pytest.raises(ConfigurationError, match=message):
        if stage == "cluster":
            run_cluster_stage(config, federation, model, bad, root)
        else:
            run_leaf_stage(config, federation, model, root, {j: root for j in range(3)}, bad)


# --- one train stack per run ----------------------------------------------------


@pytest.mark.parametrize("batch_mode", ["full", "mini"])
def test_a_run_and_its_metrics_encode_each_split_once(federation, monkeypatch, batch_mode):
    original = fedtier.model.encode
    encoded = Counter()

    def counted(model, data):
        encoded[id(data)] += 1
        return original(model, data)

    for module in (fedtier.model, fedtier.federation, fedtier.metrics, fedtier.adaptation):
        assert module.encode is original
        monkeypatch.setattr(module, "encode", counted)
    config = FederationConfig(n_clients=9, rank=2, t_root=4, t_cluster=4, t_leaf=4,
                              total_budget=12, lr=0.5, batch_mode=batch_mode, batch_size=8,
                              master_seed=5, hidden_dim=10, k_max=4)
    compute_metrics(run_protocol(config, federation))
    for client in federation.clients:
        assert (encoded[id(client.train)], encoded[id(client.test)]) == (1, 1)
    assert sum(encoded.values()) == 2 * len(federation.clients)


def test_every_stage_trains_on_the_runs_own_encoded_rows(federation, monkeypatch):
    original = fedtier.federation.local_update
    stacks = []

    def recorded(model, path, data, active, *args, **kwargs):
        stacks.append((active, data))
        return original(model, path, data, active, *args, **kwargs)

    monkeypatch.setattr(fedtier.federation, "local_update", recorded)
    config = FederationConfig(n_clients=9, rank=2, t_root=6, t_cluster=6, t_leaf=6,
                              total_budget=18, lr=0.5, batch_mode="mini", batch_size=8,
                              master_seed=5, hidden_dim=10, k_max=4, tau_rel=0.3, workers=1)
    fed = run_protocol(config, federation)
    assert isinstance(fed.train, ClientStack)
    assert fed.train.sizes.tolist() == TRAIN_SIZES   # client order
    run_rows = {id(e) for e in fed.train.clients}
    for tier in Tier:
        stage = [data for active, data in stacks if active is tier]
        # while every group runs the stage trains on the run's stack itself
        assert stage[0] is fed.train
        for data in stage:
            assert {id(e) for e in data.clients} <= run_rows
    # groups retired, so some rounds trained on the running members' rows only
    assert any(len(data.clients) < 9 for _, data in stacks)


# --- stacked forms -------------------------------------------------------------


def factor_stacks(seed, n=5, p=6, q=9, r=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, p, r)), rng.normal(size=(n, r, q))


def test_aggregate_product_of_factor_stacks_is_the_adapter_list_sum_bitwise():
    b, a = factor_stacks(0)
    weights = weights_root([3, 1, 4, 1, 5])
    listed = aggregate_product([LoraAdapter(b=bi, a=ai, rank=3) for bi, ai in zip(b, a)],
                               weights)
    assert listed.shape == (6, 9)
    assert np.array_equal(aggregate_product((b, a), weights), listed)


@pytest.mark.parametrize("bad", ["pairing", "weights", "weight_sum", "non_finite"])
def test_aggregate_product_refuses_bad_factor_stacks(bad):
    b, a = factor_stacks(1)
    weights = np.full(5, 0.2)
    if bad == "pairing":
        a = a[:, :2]
    elif bad == "weights":
        weights = np.full(4, 0.25)
    elif bad == "weight_sum":
        weights = np.full(5, 0.3)
    else:
        b[2, 1, 0] = np.inf
    with pytest.raises(ConfigurationError):
        aggregate_product((b, a), weights)


def test_aggregate_product_refuses_a_list_of_mixed_ranks():
    # a list is summed as one factor stack, so its adapters must share a rank
    b, a = factor_stacks(5)
    mixed = [LoraAdapter(b=b[0], a=a[0], rank=3), LoraAdapter(b=b[1, :, :2], a=a[1, :2], rank=2)]
    with pytest.raises(ConfigurationError, match="disagree on dimensions"):
        aggregate_product(mixed, [0.5, 0.5])


def test_refactor_of_a_stack_is_each_matrix_refactored_bitwise():
    b, a = factor_stacks(2)
    stack = b @ a + 0.1 * np.random.default_rng(3).normal(size=(5, 6, 9))
    sb, sa = refactor(stack, 2)
    assert sb.shape == (5, 6, 2) and sa.shape == (5, 2, 9)
    for m, bi, ai in zip(stack, sb, sa):
        one = refactor(m, 2)
        assert isinstance(one, LoraAdapter)
        assert np.array_equal(one.b, bi) and np.array_equal(one.a, ai)
    factors = truncated_svd(stack, 2)
    for n, m in enumerate(stack):
        one = truncated_svd(m, 2)
        assert np.array_equal(one.u, factors.u[n])
        assert np.array_equal(one.singular_values, factors.singular_values[n])
        assert np.array_equal(one.vt, factors.vt[n])


def test_truncated_svd_refuses_a_non_finite_stack():
    stack = np.ones((3, 4, 4))
    stack[1, 2, 2] = np.nan
    with pytest.raises(ConfigurationError, match="non-finite"):
        truncated_svd(stack, 2)


def test_stop_check_of_stacks_is_each_pair_checked_bitwise():
    rng = np.random.default_rng(4)
    prev = rng.normal(size=(6, 5, 7))
    new = prev + rng.normal(size=(6, 5, 7)) * np.geomspace(1e-6, 1.0, 6)[:, None, None]
    stopped, rho = stop_check(prev, new, 1e-3, 1e-8)
    assert stopped.shape == rho.shape == (6,)
    assert stopped.any() and not stopped.all()
    for n in range(6):
        one_stopped, one_rho = stop_check(prev[n], new[n], 1e-3, 1e-8)
        assert type(one_stopped) is bool and type(one_rho) is float
        assert (one_stopped, one_rho) == (stopped[n], rho[n])
    assert np.array_equal(frobenius_norm(prev), [frobenius_norm(m) for m in prev])


# --- divergence ----------------------------------------------------------------

DIVERGING = dict(t_root=3, t_cluster=3, t_leaf=4, total_budget=10, lr=1e150)


@pytest.mark.parametrize("batch_mode", ["full", "mini"])
def test_divergence_fails_typed_in_every_stage_and_the_protocol(federation, batch_mode):
    config = FederationConfig(n_clients=9, rank=2, batch_mode=batch_mode, batch_size=8,
                              master_seed=5, hidden_dim=10, **DIVERGING)
    sane = replace(config, lr=0.05)
    model = build_model(5, 6, config.hidden_dim, config.master_seed)
    clusters_of = assignment()
    root, _ = run_root_stage(sane, federation, model, BasisTracker(0.9))
    clusters, _ = run_cluster_stage(sane, federation, model, clusters_of, root)
    calls = [lambda: run_root_stage(config, federation, model, BasisTracker(0.9)),
             lambda: run_cluster_stage(config, federation, model, clusters_of, root),
             lambda: run_leaf_stage(config, federation, model, root, clusters, clusters_of),
             lambda: run_protocol(config, federation)]
    stages = ["root", "cluster", "leaf", "root"]
    for call, stage in zip(calls, stages, strict=True):
        # no numpy warning escapes: under filterwarnings = error it would raise instead
        with pytest.raises(ConfigurationError,
                           match=rf"the {stage} stage diverged in round \d+: .*non-finite.*"
                                 rf"lower lr \(now 1e\+150\)"):
            call()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("batch_mode", ["full", "mini"])
def test_diverging_cli_run_exits_2(tmp_path, capsys, batch_mode, workers):
    doc = {"federation": dict(rank=2, batch_mode=batch_mode, master_seed=3, hidden_dim=12,
                              **DIVERGING),
           "data": {"kind": "cluster_shift", "classes": 6, "feature_dim": 6,
                    "per_class": 120, "separation": 3.0, "n_total": 10, "k_true": 2,
                    "rotation_angle": 1.2, "label_subset_size": 2, "unseen_fraction": 0.2,
                    "seed": 4}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "run"),
                 "--workers", str(workers)])
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: the root stage diverged in round ")
    assert "non-finite" in line and "lr (now 1e+150)" in line
