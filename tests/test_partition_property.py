"""Property test of `partition`: for any scheme, class count, client count
and seed, either the expected error is raised or the federation keeps every
scheme's invariants."""

import numpy as np
import pytest

from fedtier.datagen import ClusterShift, GlDir, Patho, ScDir, gen_pool, partition
from fedtier.errors import ConfigurationError, GenerationError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PER_CLASS = 30


def subset_sizes(class_count, group_of, subset_size):
    """Rows per client under the label-subset rule: group g holds positions
    g * subset_size ... (cyclically) of the class order, and each class's
    PER_CLASS rows are split among its holders as np.array_split does."""
    held = [{(g * subset_size + j) % class_count for j in range(subset_size)}
            for g in range(max(group_of) + 1)]
    sizes = [0] * len(group_of)
    for p in range(class_count):
        who = [i for i, g in enumerate(group_of) if p in held[g]]
        for rank, i in enumerate(who):
            sizes[i] += PER_CLASS // len(who) + (rank < PER_CLASS % len(who))
    return sizes


@st.composite
def cases(draw):
    c = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    scheme = draw(st.sampled_from(["gl_dir", "sc_dir", "patho", "cluster_shift"]))
    if scheme == "gl_dir":
        spec = GlDir(draw(st.sampled_from([0.3, 1.0, 1e3])))
    elif scheme == "sc_dir":
        n_super = draw(st.integers(1, c))
        sup = draw(st.none() | st.permutations([k % n_super for k in range(c)]))
        spec = ScDir(draw(st.sampled_from([0.3, 1.0, 1e3])),
                     None if sup is None else tuple(sup))
    elif scheme == "patho":
        spec = Patho(draw(st.integers(1, c + 1)))
    else:
        spec = ClusterShift(draw(st.integers(1, n + 1)),
                            draw(st.floats(-4.0, 4.0)), draw(st.integers(1, c + 1)))
    return c, n, spec, draw(st.integers(0, 2**16))


@hypothesis.settings(database=None, derandomize=True, deadline=None, max_examples=80)
@hypothesis.given(cases())
def test_partition_keeps_its_invariants(case):
    c, n, spec, seed = case
    pool = gen_pool(c, 3, PER_CLASS, 2.0, seed=seed)
    if isinstance(spec, (GlDir, ScDir)):
        n_each = c * PER_CLASS // (2 * n)
        expected = None if n_each >= 10 else GenerationError
    elif isinstance(spec, Patho):
        m = spec.classes_per_client
        sizes = None if m > c else subset_sizes(c, list(range(n)), m)
        expected = (ConfigurationError if sizes is None
                    else GenerationError if min(sizes) < 10 else None)
    else:
        group_of = [i % spec.k_true for i in range(n)]
        sizes = None if spec.k_true > n else subset_sizes(c, group_of, spec.label_subset_size)
        expected = (ConfigurationError if sizes is None
                    else GenerationError if min(sizes) < 10 else None)
    if expected is not None:
        with pytest.raises(expected):
            partition(pool, spec, n, seed=seed)
        return
    try:
        fed = partition(pool, spec, n, seed=seed)
    except GenerationError as exc:
        # only a Dirichlet draw can be infeasible on every attempt
        assert isinstance(spec, (GlDir, ScDir)) and "attempts" in str(exc)
        return

    assert fed.n_clients == n
    labels = []
    for client in fed.clients:
        rows = len(client.train) + len(client.test)
        assert rows >= 10
        assert len(client.train) == min(max(int(round(0.8 * rows)), 1), rows - 1)
        labels.append(set(np.concatenate([client.train.y, client.test.y]).tolist()))
    sizes_seen = [len(cl.train) + len(cl.test) for cl in fed.clients]
    if isinstance(spec, (GlDir, ScDir)):
        assert sizes_seen == [n_each] * n
        assert np.allclose(fed.label_priors.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    else:
        assert sizes_seen == sizes and fed.label_priors is None
    if isinstance(spec, Patho):
        assert all(len(held) <= spec.classes_per_client for held in labels)
        assert fed.true_clusters is None
    if isinstance(spec, ClusterShift):
        assert fed.true_clusters.tolist() == group_of
        for g in range(spec.k_true):
            held = set().union(*(labels[i] for i in range(n) if group_of[i] == g))
            assert len(held) <= spec.label_subset_size
