"""fedtier's entry points run BLAS on one thread and give the caller's thread
count back; results do not depend on the BLAS thread count."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import fedtier.federation
from fedtier import linalg
from fedtier.adaptation import adapt_unseen
from fedtier.datagen import ClusterShift, gen_pool, partition, split_unseen
from fedtier.errors import ConfigurationError
from fedtier.federation import FederationConfig, run_protocol
from fedtier.linalg import one_blas_thread
from fedtier.lora import Tier
from fedtier.metrics import compute_metrics

needs_openblas = pytest.mark.skipif(linalg._OPENBLAS is None,
                                    reason="numpy does not bundle OpenBLAS here")
SRC = Path(__file__).resolve().parents[1] / "src"


def blas_threads() -> int:
    return linalg._OPENBLAS[0]()


@pytest.fixture()
def two_threads():
    """The caller runs BLAS on 2 threads; its own count comes back afterwards."""
    get, set_threads = linalg._OPENBLAS
    before = get()
    set_threads(2)
    yield
    set_threads(before)


@pytest.fixture(scope="module")
def tiny():
    pool = gen_pool(6, 6, 60, 3.0, seed=2)
    data = split_unseen(partition(pool, ClusterShift(2, np.pi / 2, 2), 10, seed=2), 0.2, seed=2)
    config = FederationConfig(n_clients=len(data.clients), t_root=3, t_cluster=2, t_leaf=2,
                              total_budget=7, batch_mode="mini", hidden_dim=8)
    return data, config


@needs_openblas
def test_each_entry_point_restores_the_callers_count(tiny, two_threads, monkeypatch):
    data, config = tiny
    seen = []

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        return cluster_clients(*args, **kwargs)

    cluster_clients = fedtier.federation.cluster_clients
    monkeypatch.setattr(fedtier.federation, "cluster_clients", spy)
    fed = run_protocol(config, data)
    assert seen == [1] and blas_threads() == 2
    compute_metrics(fed)
    assert blas_threads() == 2
    adapt_unseen(fed.model, data.unseen[0], fed.server, config, epochs=1)
    assert blas_threads() == 2


@needs_openblas
def test_count_is_restored_when_the_entry_point_raises(tiny, two_threads):
    data, config = tiny
    with pytest.raises(ConfigurationError, match="clients"):
        run_protocol(FederationConfig(n_clients=config.n_clients + 1), data)
    assert blas_threads() == 2


@needs_openblas
def test_nested_use_restores_each_level(two_threads):
    with one_blas_thread():
        assert blas_threads() == 1
        with one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == 2


@needs_openblas
def test_overlapping_pins_on_two_threads_restore_the_callers_count(two_threads):
    # thread B pins while A's pin is open, and A's pin closes first
    a_open, b_open, a_closed = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def a():
        with one_blas_thread():
            a_open.set()
            assert b_open.wait(5)
        a_closed.set()

    def b():
        assert a_open.wait(5)
        with one_blas_thread():
            b_open.set()
            assert a_closed.wait(5)
            seen.append(blas_threads())

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    assert seen == [1] and blas_threads() == 2


@needs_openblas
def test_without_the_handle_the_results_are_the_same(tiny, two_threads, monkeypatch):
    data, config = tiny
    pinned = run_protocol(config, data)
    monkeypatch.setattr(linalg, "_OPENBLAS", None)
    free = run_protocol(config, data)
    for a, b in zip(pinned.clients, free.clients, strict=True):
        for tier in Tier:
            x, y = a.path.adapter(tier), b.path.adapter(tier)
            assert np.array_equal(x.b, y.b) and np.array_equal(x.a, y.a)


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    doc = {"federation": {"rank": 2, "t_root": 4, "t_cluster": 3, "t_leaf": 2,
                          "total_budget": 9, "lr": 0.05, "batch_mode": "mini",
                          "master_seed": 3, "hidden_dim": 12},
           "data": {"kind": "cluster_shift", "classes": 6, "feature_dim": 6,
                    "per_class": 120, "separation": 3.0, "n_total": 10, "k_true": 2,
                    "rotation_angle": 1.2, "label_subset_size": 2,
                    "unseen_fraction": 0.2, "seed": 4}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    files = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        run_dir = tmp_path / f"run{threads}"
        for argv in (["run", "--config", str(config), "--out", str(run_dir)],
                     ["report", "--run", str(run_dir)]):
            subprocess.run([sys.executable, "-m", "fedtier.cli", *argv], env=env, check=True,
                           capture_output=True)
        files[threads] = {p.relative_to(run_dir): p.read_bytes()
                          for p in sorted(run_dir.rglob("*"))
                          if p.is_file() and p.name != "manifest.json"}
    assert len(files["1"]) > 5 and files["1"] == files["2"]
