"""Property tests drawn from the value rules in fedtier.errors.

Every config field that declares a rule (`errors.ruled`), and every
entry-point argument that `check_types` holds to one, accepts the values on
the accepted side of its rule. The boundary and the first value past it, and
for a number NaN and +-inf, raise ConfigurationError naming the field. The
edges come from the rule's own interval or choices, so a rule that moves
moves its tests. Also: a valid FederationConfig survives a manifest round
trip, and stop_check keeps its contract."""

import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fedtier.adaptation import adapt_unseen, probe_basis
from fedtier.cli import _materialize_config
from fedtier.clustering import BasisTracker
from fedtier.datagen import ClusterShift, GlDir, Patho, ScDir, gen_pool, partition, split_unseen
from fedtier.errors import (FINITE, FINITE_POSITIVE, NON_NEGATIVE, OPEN_UNIT, POSITIVE,
                            ConfigurationError, check_field_types, one_of)
from fedtier.federation import FederationConfig, stop_check
from fedtier.model import SgdConfig, gradient_check

PROPERTY = settings(database=None, derandomize=True, deadline=None, max_examples=30)

# one valid value of each required field; a drawn value replaces one of them
BASE = {FederationConfig: {"n_clients": 5}, SgdConfig: {"lr": 0.1, "epochs": 1},
        BasisTracker: {"decay": 0.5}, GlDir: {"alpha": 1.0}, ScDir: {"alpha": 1.0},
        Patho: {"classes_per_client": 2},
        ClusterShift: {"k_true": 2, "rotation_angle": 1.0, "label_subset_size": 2}}
RULED = [(cls, f.name, f.type, f.metadata["rule"]) for cls in BASE for f in fields(cls)
         if "rule" in f.metadata]
BUDGETS = ("t_root", "t_cluster", "t_leaf")


def build(cls, **override):
    """cls from BASE and override, held to its rules; a FederationConfig's
    total_budget follows its stage budgets, so that only the rule can fail."""
    kwargs = {**BASE[cls], **override}
    if cls is FederationConfig:
        defaults = {f.name: f.default for f in fields(cls)}
        kwargs["total_budget"] = sum(kwargs.get(t, defaults[t]) for t in BUDGETS)
    obj = cls(**kwargs)
    check_field_types(obj)   # a partition spec is held to its rules by partition
    return obj


def _step(kind, value, toward):
    """The next int or float after value in the direction of toward."""
    if kind is int:
        return value + (1 if toward > value else -1)
    return math.nextafter(value, toward)


def edges(rule, kind):
    """(accepted, rejected): the values on each side of the rule's edges."""
    if rule.choices:
        return list(rule.choices), ["", rule.choices[0].upper(), rule.choices[0] + " "]
    accepted, rejected = [], []
    if rule.lo > -math.inf:
        first = rule.lo if rule.closed_lo else _step(kind, rule.lo, math.inf)
        accepted.append(first)
        rejected.append(_step(kind, first, -math.inf))
    if rule.hi < math.inf:
        accepted.append(_step(kind, rule.hi, -math.inf))
        rejected.append(rule.hi)
    if kind is float:
        accepted += [v for v in (-1.7976931348623157e308, 1.7976931348623157e308)
                     if rule.holds(v)]
        rejected += [math.nan, math.inf, -math.inf]
    return accepted, rejected


def accepted_values(rule, kind):
    """A strategy for the values the rule accepts."""
    if rule.choices:
        return st.sampled_from(rule.choices)
    lo = None if rule.lo == -math.inf else rule.lo
    hi = None if rule.hi == math.inf else rule.hi
    if kind is int:
        return st.integers(None if lo is None else lo + (not rule.closed_lo),
                           None if hi is None else hi - 1)
    return st.floats(lo, hi, exclude_min=lo is not None and not rule.closed_lo,
                     exclude_max=hi is not None, allow_nan=False, allow_infinity=False)


def _ids(cases):
    return [f"{cls.__name__}.{name}={value!r}" for cls, name, value in cases]


ACCEPTED_EDGES = [(cls, name, v) for cls, name, kind, rule in RULED
                  for v in edges(rule, kind)[0]]
REJECTED_EDGES = [(cls, name, v) for cls, name, kind, rule in RULED
                  for v in edges(rule, kind)[1]]


# the rule each field declares, so that changing one is a visible edit here too
DECLARED = {
    "FederationConfig": {
        "n_clients": POSITIVE, "rank": POSITIVE, "gamma_c": NON_NEGATIVE,
        "gamma_l": NON_NEGATIVE, "ema_decay": OPEN_UNIT, "tau_rel": FINITE_POSITIVE,
        "eps": FINITE_POSITIVE, "t_root": POSITIVE, "t_cluster": NON_NEGATIVE,
        "t_leaf": NON_NEGATIVE, "lr": FINITE_POSITIVE, "local_epochs": POSITIVE,
        "batch_mode": one_of("full", "mini"), "batch_size": POSITIVE, "hidden_dim": POSITIVE,
        "workers": POSITIVE},
    "SgdConfig": {"lr": FINITE_POSITIVE, "epochs": NON_NEGATIVE,
                  "batch_mode": one_of("full", "mini"), "batch_size": POSITIVE},
    "BasisTracker": {"decay": OPEN_UNIT},
    "GlDir": {"alpha": FINITE_POSITIVE},
    "ScDir": {"alpha": FINITE_POSITIVE},
    "Patho": {"classes_per_client": POSITIVE},
    "ClusterShift": {"k_true": POSITIVE, "rotation_angle": FINITE,
                     "label_subset_size": POSITIVE},
}

# what each named rule means: (kind, values it accepts, values it rejects)
MEANING = [
    (POSITIVE, int, [1, 10**30], [0, -1]),
    (NON_NEGATIVE, int, [0, 10**30], [-1]),
    (NON_NEGATIVE, float, [0.0, 1e308], [-5e-324, math.inf, math.nan]),
    (FINITE_POSITIVE, float, [5e-324, 1e308], [0.0, -1.0, math.inf, math.nan]),
    (FINITE, float, [-1e308, 0.0, 1e308], [math.inf, -math.inf, math.nan]),
    (OPEN_UNIT, float, [5e-324, 0.5, 1 - 2**-53], [0.0, 1.0, -0.5, math.nan]),
    (one_of("full", "mini"), str, ["full", "mini"], ["", "Full", "adam"]),
]


def test_every_rule_field_is_declared_as_pinned():
    declared = {cls.__name__: {n: r for c, n, _, r in RULED if c is cls} for cls in BASE}
    assert declared == DECLARED


@pytest.mark.parametrize("rule,kind,accepted,rejected", MEANING,
                         ids=[f"{r.text}-{k.__name__}" for r, k, *_ in MEANING])
def test_named_rule_meaning(rule, kind, accepted, rejected):
    assert all(rule.holds(v) for v in accepted)
    assert not any(rule.holds(v) for v in rejected)
    # the derived edges agree: every accepted edge holds, no rejected one does
    edge_in, edge_out = edges(rule, kind)
    assert all(rule.holds(v) for v in edge_in) and not any(rule.holds(v) for v in edge_out)


@pytest.mark.parametrize("cls,name,value", ACCEPTED_EDGES, ids=_ids(ACCEPTED_EDGES))
def test_accepted_edge_constructs(cls, name, value):
    assert getattr(build(cls, **{name: value}), name) == value


@pytest.mark.parametrize("cls,name,value", REJECTED_EDGES, ids=_ids(REJECTED_EDGES))
def test_rejected_edge_raises_naming_the_field(cls, name, value):
    with pytest.raises(ConfigurationError, match=rf"^{name} must "):
        build(cls, **{name: value})


# an integer past the largest float passes a number's interval, but no float holds it
BEYOND_FLOAT = [(cls, name, sign * 10**400) for cls, name, kind, _ in RULED if kind is float
                for sign in (1, -1)]


@pytest.mark.parametrize("cls,name,value", BEYOND_FLOAT,
                         ids=[f"{cls.__name__}.{name}={'-' * (v < 0)}10**400"
                              for cls, name, v in BEYOND_FLOAT])
def test_integer_beyond_the_float_range_raises_naming_the_field(cls, name, value):
    with pytest.raises(ConfigurationError, match=rf"^{name} must lie within the float range$"):
        build(cls, **{name: value})


@pytest.mark.parametrize("cls,name,kind,rule", RULED,
                         ids=[f"{cls.__name__}.{name}" for cls, name, *_ in RULED])
@PROPERTY
@given(data=st.data())
def test_values_the_rule_accepts_construct(cls, name, kind, rule, data):
    value = data.draw(accepted_values(rule, kind))
    assert getattr(build(cls, **{name: value}), name) == value


@pytest.fixture(scope="module")
def small_fed():
    return partition(gen_pool(4, 3, 60, 1.0, seed=3), GlDir(1.0), 4, seed=0)


# entry-point arguments held to a rule: (kind, rule, call given the value,
# the small federation of four clients and the shared trained federation)
ARGUMENTS = {
    "class_count": (int, POSITIVE, lambda v, fed, tf: gen_pool(v, 2, 20, 1.0, seed=0)),
    "feature_dim": (int, POSITIVE, lambda v, fed, tf: gen_pool(2, v, 20, 1.0, seed=0)),
    "per_class": (int, POSITIVE, lambda v, fed, tf: gen_pool(2, 2, v, 1.0, seed=0)),
    "separation": (float, NON_NEGATIVE, lambda v, fed, tf: gen_pool(2, 2, 20, v, seed=0)),
    "n_clients": (int, POSITIVE,
                  lambda v, fed, tf: partition(gen_pool(4, 3, 60, 1.0, seed=3), GlDir(1.0), v,
                                               seed=0)),
    "fraction": (float, OPEN_UNIT, lambda v, fed, tf: split_unseen(fed, v, seed=0)),
    "epochs": (int, NON_NEGATIVE,
               lambda v, fed, tf: adapt_unseen(tf.model, tf.data.unseen[0], tf.server,
                                               tf.config, epochs=v)),
    "trials": (int, POSITIVE, lambda v, fed, tf: gradient_check(trials=v)),
}


@pytest.mark.parametrize("name", sorted(ARGUMENTS))
def test_argument_rule_edges(small_fed, trained_fed, name):
    # the first accepted value at the lower edge runs; every rejected edge
    # raises the rule's own message naming the argument
    kind, rule, call = ARGUMENTS[name]
    accepted, rejected = edges(rule, kind)
    call(accepted[0], small_fed, trained_fed)
    for value in rejected:
        with pytest.raises(ConfigurationError) as info:
            call(value, small_fed, trained_fed)
        assert str(info.value) == f"{name} {rule.text}, got {value!r}"


@pytest.mark.parametrize("name", sorted(n for n, (kind, *_) in ARGUMENTS.items() if kind is float))
def test_float_argument_beyond_the_float_range_raises(small_fed, trained_fed, name):
    call = ARGUMENTS[name][2]
    for value in (10**400, -10**400):
        with pytest.raises(ConfigurationError, match=rf"^{name} must lie within the float range$"):
            call(value, small_fed, trained_fed)


# the data section of the round trip: four participating clients
ROUND_TRIP_DATA = {"kind": "patho", "classes": 4, "feature_dim": 2, "per_class": 20,
                   "n_total": 4, "classes_per_client": 2, "seed": 1}


@PROPERTY
@given(data=st.data())
def test_valid_federation_config_round_trips_through_a_manifest(data):
    values = {name: data.draw(accepted_values(rule, kind), label=name)
              for cls, name, kind, rule in RULED if cls is FederationConfig}
    values["n_clients"] = 4
    values["k_max"] = data.draw(st.integers(2, 50), label="k_max")
    values["k_min"] = data.draw(st.integers(2, min(values["k_max"], 3)), label="k_min")
    values["master_seed"] = data.draw(st.integers(0, 2**64), label="master_seed")
    values["total_budget"] = sum(values[t] for t in BUDGETS)
    config = FederationConfig(**values)
    manifest = json.loads(json.dumps({"config": {"federation": asdict(config),
                                                 "data": ROUND_TRIP_DATA}}))
    _, again, _ = _materialize_config(manifest["config"])
    assert again == config


MODERATE = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@PROPERTY
@given(data=st.data())
def test_stop_check_contract(data):
    shape = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)), label="shape")
    prev = data.draw(arrays(np.float64, shape, elements=MODERATE), label="prev")
    new = data.draw(arrays(np.float64, shape, elements=MODERATE), label="new")
    tau_rel = data.draw(accepted_values(FINITE_POSITIVE, float), label="tau_rel")
    # from 1e-12 up, |new - prev| / eps stays within the float range
    eps = data.draw(st.floats(1e-12, 1e6), label="eps")
    stopped, rho = stop_check(prev, new, tau_rel, eps)
    assert 0.0 <= rho < math.inf
    assert stopped == (rho <= tau_rel)
    assert stop_check(prev, prev.copy(), tau_rel, eps) == (True, 0.0)
