"""The stream rule: every random draw comes from streams.stream(seed,
purpose, index), no two (purpose, index) keys alias, and every seed goes
through one check."""

import re
from pathlib import Path

import numpy as np
import pytest

from fedtier.datagen import GlDir, gen_pool, load_csv, partition, split_unseen
from fedtier.errors import ConfigurationError
from fedtier.federation import FederationConfig, run_protocol
from fedtier.model import build_model
from fedtier.streams import PURPOSES, stream
from test_datagen import count_default_rng
from test_federation import cloned_federation

SRC = Path(__file__).resolve().parents[1] / "src" / "fedtier"


def first_state(rng: np.random.Generator) -> int:
    return rng.bit_generator.state["state"]["state"]


def test_every_purpose_index_and_seed_gets_its_own_stream():
    seeds = (0, 1, 7, 2**32, 2**32 + 1, 2**64 + 3)
    states = {first_state(stream(seed, purpose, index))
              for seed in seeds for purpose in PURPOSES for index in range(4)}
    assert len(states) == len(seeds) * len(PURPOSES) * 4


@pytest.mark.parametrize("seed", [0, 3, 23])
@pytest.mark.parametrize("one, other", [(("root_init", 0), ("kmeans", 11)),
                                        (("unseen_split", 0), ("partition", 7))])
def test_once_aliased_purposes_draw_different_streams(seed, one, other):
    # numpy ignores trailing zero words of a plain seed list, so keys built as
    # [m, 11, 0, 0] and [m, 11] would be one stream
    assert first_state(stream(seed, *one)) != first_state(stream(seed, *other))


def test_same_key_gives_the_same_stream():
    assert np.array_equal(stream(5, "leaf_shuffle", 2).random(4),
                          stream(5, "leaf_shuffle", 2).random(4))


def test_unknown_purpose_is_rejected():
    with pytest.raises(ValueError):
        stream(0, "no such purpose")


def test_only_the_stream_module_builds_generators():
    builders = re.compile(r"\b(default_rng|SeedSequence)\s*\(")
    offenders = [path.name for path in SRC.glob("*.py")
                 if path.name != "streams.py" and builders.search(path.read_text())]
    assert offenders == []


def test_generator_count_does_not_grow_with_rounds(monkeypatch):
    # one shuffle stream per client per stage, whatever the round counts
    data = cloned_federation(4, seed=8)
    counts, cluster_counts = [], []
    for scale in (1, 2):
        config = FederationConfig(n_clients=4, rank=2, t_root=4 * scale, t_cluster=3 * scale,
                                  t_leaf=2 * scale, total_budget=9 * scale,
                                  batch_mode="mini", batch_size=8, master_seed=7,
                                  hidden_dim=12, tau_rel=1e-12)
        calls = count_default_rng(monkeypatch)
        fed = run_protocol(config, data)
        monkeypatch.undo()
        assert fed.rounds_executed == 9 * scale
        counts.append(len(calls))
        cluster_counts.append(len(fed.server.clusters))
    # the inits follow the cluster count, so it must not move either
    assert cluster_counts[0] == cluster_counts[1]
    assert counts[0] == counts[1]


def _csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("client_id,label,f0\n" + "".join(f"{i % 2},{i % 3},{i}.5\n"
                                                      for i in range(8)))
    return path


def _pool():
    return gen_pool(4, 3, 60, 1.0, seed=3)


# library calls with a seed outside the rule
BAD_SEEDS = {
    "gen_pool_negative": lambda tmp: gen_pool(2, 2, 10, 1.0, seed=-1),
    "partition_negative": lambda tmp: partition(_pool(), GlDir(1.0), 4, seed=-1),
    "split_unseen_negative": lambda tmp: split_unseen(
        partition(_pool(), GlDir(1.0), 4, seed=0), 0.5, seed=-1),
    "load_csv_fractional": lambda tmp: load_csv(_csv(tmp), seed=0.5),
    "build_model_negative": lambda tmp: build_model(2, 2, 4, -1),
    "stream_bool": lambda tmp: stream(True, "pool"),
}


@pytest.mark.parametrize("case", sorted(BAD_SEEDS))
def test_bad_seed_is_a_configuration_error(tmp_path, case):
    with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
        BAD_SEEDS[case](tmp_path)
