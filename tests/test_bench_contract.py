"""The benchmark's layer targets stay live: a refactor that stops calling a
traced function through its module bindings would zero that layer's
metrics without failing anything else.

Runs a tiny protocol, its metrics and one unseen-client adaptation under the
benchmark's own tracer (perfbench/tracer.py, imported as it is) and checks
that every library target records at least one call.
"""

import sys
from pathlib import Path

import numpy as np

import fedtier
import fedtier.cli  # noqa: F401  (the tracer resolves every target's module)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import LAYER_TARGETS, Tracer  # noqa: E402

# Targets no library call reaches: tier_gradient and tier_gains are kept as
# public API but the protocol and compute_metrics use the stacked kernels,
# and the rest run only inside the CLI.
KNOWN_DEAD = {"model.tier_gradient", "metrics.tier_gains"}
CLI_ONLY = {"cli.main", "lora.checkpoint_io"}


def test_every_library_layer_target_is_called():
    with Tracer(LAYER_TARGETS) as tracer:
        pool = fedtier.gen_pool(6, 6, 60, 3.0, seed=2)
        data = fedtier.partition(pool, fedtier.ClusterShift(2, np.pi / 2, 2), 10, seed=2)
        data = fedtier.split_unseen(data, 0.2, seed=2)
        config = fedtier.FederationConfig(n_clients=len(data.clients), t_root=3,
                                          t_cluster=2, t_leaf=2, total_budget=7,
                                          batch_mode="mini", hidden_dim=8)
        fed = fedtier.run_protocol(config, data)
        fedtier.compute_metrics(fed)
        fedtier.adapt_unseen(fed.model, data.unseen[0], fed.server, config, epochs=1)
    called = {s.name for s in tracer.spans} | set(tracer.counts())
    silent = {t.label for t in LAYER_TARGETS} - called - KNOWN_DEAD - CLI_ONLY
    assert not silent, f"no calls recorded for {sorted(silent)}"
