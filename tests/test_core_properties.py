"""Property tests of the server-side rules and the checkpoint format:
product aggregation is linear in the weights and blind to member order,
refactor is an Eckart-Young optimal rank-r approximation, and adapter and
matrix dumps round-trip every finite float64 bit for bit."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fedtier.federation import aggregate_product, refactor
from fedtier.lora import LoraAdapter, dump_adapter, dump_matrix, load_adapter, load_matrix

TOL = 1e-12
MODERATE = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
# every finite float64: -0.0, subnormals and both extreme exponents included
ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308])


@st.composite
def adapters(draw, elements=MODERATE, max_count=5):
    """A list of same-shape adapters with entries drawn from `elements`."""
    p, q = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.integers(1, min(p, q)))
    count = draw(st.integers(1, max_count))
    return [LoraAdapter(b=draw(arrays(np.float64, (p, r), elements=elements)),
                        a=draw(arrays(np.float64, (r, q), elements=elements)), rank=r)
            for _ in range(count)]


def weights(draw, n):
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    return raw / raw.sum()


@given(st.data())
def test_aggregate_product_is_linear_in_the_weights(data):
    ads = data.draw(adapters())
    w, v = weights(data.draw, len(ads)), weights(data.draw, len(ads))
    t = data.draw(st.floats(0.0, 1.0))
    mixed = aggregate_product(ads, t * w + (1.0 - t) * v)
    expected = t * aggregate_product(ads, w) + (1.0 - t) * aggregate_product(ads, v)
    assert np.max(np.abs(mixed - expected)) <= TOL
    # each one-hot weight picks one member's product
    by_member = sum(wi * aggregate_product(ads, np.eye(len(ads))[i]) for i, wi in enumerate(w))
    assert np.max(np.abs(aggregate_product(ads, w) - by_member)) <= TOL


@given(st.data())
def test_aggregate_product_ignores_member_order(data):
    ads = data.draw(adapters())
    w = weights(data.draw, len(ads))
    order = data.draw(st.permutations(range(len(ads))))
    shuffled = aggregate_product([ads[i] for i in order], w[list(order)])
    assert np.max(np.abs(shuffled - aggregate_product(ads, w))) <= TOL


@settings(deadline=None)
@given(st.data())
def test_refactor_error_is_the_discarded_singular_energy(data):
    p, q = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    r = data.draw(st.integers(1, min(p, q)))
    # entries on a 1e-3 grid: no product underflows below the relative tolerance
    m = data.draw(arrays(np.float64, (p, q),
                         elements=st.integers(-10**6, 10**6).map(lambda k: k / 1e3)))
    ad = refactor(m, r)
    assert ad.b.shape == (p, r) and ad.a.shape == (r, q)
    # squared singular values from an eigensolver, independent of the SVD
    energy = np.sort(np.clip(np.linalg.eigvalsh(m @ m.T), 0.0, None))[::-1]
    error = float(np.sum((m - ad.b @ ad.a) ** 2))
    assert abs(error - float(np.sum(energy[r:]))) <= 1e-9 * float(np.sum(m * m))


def same_bits(x, y) -> bool:
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@given(adapters(elements=ANY_FINITE, max_count=1))
def test_adapter_dump_round_trips_bitwise(ads):
    [ad] = ads
    back = load_adapter(dump_adapter(ad))
    assert back.rank == ad.rank and same_bits(back.b, ad.b) and same_bits(back.a, ad.a)


@given(st.integers(1, 6).flatmap(
    lambda rows: st.integers(1, 6).flatmap(
        lambda cols: arrays(np.float64, (rows, cols), elements=ANY_FINITE))))
def test_matrix_dump_round_trips_bitwise(m):
    assert same_bits(load_matrix(dump_matrix(m)), m)
