"""Exception types shared across the package, and its value rules.

A value rule is data: the interval or the choices a value must lie in, and
the words that say so. A dataclass field declares its rule once, in its
metadata (``ruled``), and `check_field_types` holds the field to it right
after the field's type check; an entry point checks an argument's type and
rule in one `check_types` call. Rules that relate two values (budgets that
must sum, k_min <= k_max) stay as code where they are used, and seeds keep
their own `check_seed`.
"""

import math
import numbers
from dataclasses import MISSING, field, fields
from sys import float_info
from typing import NamedTuple


class ConfigurationError(ValueError):
    """Invalid dimensions, ranks, budgets, or other caller-supplied settings."""


class PreconditionError(ValueError):
    """An operation's input contract was violated (e.g. a non-orthonormal basis)."""


class DegenerateInputError(ValueError):
    """Input is numerically degenerate where a direction or scale is required."""


class GenerationError(RuntimeError):
    """Synthetic data generation could not satisfy its constraints."""


class Rule(NamedTuple):
    """A value passes when lo < value < hi (lo <= value if closed_lo), or,
    for a rule with choices, when it is one of them. NaN passes no interval.
    `text` completes the message '<name> <text>, got <value>'."""

    text: str
    lo: float = -math.inf
    hi: float = math.inf
    closed_lo: bool = False
    choices: tuple = ()

    def holds(self, value) -> bool:
        return value in self.choices if self.choices else (
            (self.lo <= value if self.closed_lo else self.lo < value) and value < self.hi)


POSITIVE = Rule("must be positive", lo=0)   # for integer counts and sizes
NON_NEGATIVE = Rule("must be finite and non-negative", lo=0, closed_lo=True)
FINITE_POSITIVE = Rule("must be finite and positive", lo=0)
FINITE = Rule("must be finite")
OPEN_UNIT = Rule("must lie in (0, 1)", lo=0, hi=1)


def one_of(*choices: str) -> Rule:
    return Rule(f"must be one of {', '.join(choices)}", choices=choices)


def ruled(rule: Rule, default=MISSING):
    """A dataclass field that check_field_types holds to `rule`."""
    return field(default=default, metadata={"rule": rule})


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          str: (str, "a string")}


def has_type(value, kind: type) -> bool:
    """An int takes any Integral, a float any Real, and a bool is neither."""
    return not isinstance(value, bool) and isinstance(value, _KINDS[kind][0])


def check_types(kind: type, rule: Rule | None = None, **values):
    """Raise ConfigurationError naming the first of values that is not of
    kind or, when a rule is given, does not pass it."""
    for name, value in values.items():
        if not has_type(value, kind):
            raise ConfigurationError(f"{name} must be {_KINDS[kind][1]}, got {value!r}")
        # an integer past the largest float would overflow in the float arithmetic after
        if kind is float and isinstance(value, numbers.Rational) and abs(value) > float_info.max:
            raise ConfigurationError(f"{name} must lie within the float range")
        if rule is not None and not rule.holds(value):
            raise ConfigurationError(f"{name} {rule.text}, got {value!r}")


def check_seed(**values):
    """Raise ConfigurationError naming the first of values not an integer >= 0."""
    for name, value in values.items():
        if not has_type(value, int) or value < 0:
            raise ConfigurationError(f"{name} must be a non-negative integer, got {value!r}")


def check_field_types(obj):
    """check_types on each int, float and str field of the dataclass obj, with
    the rule its metadata declares (see `ruled`), in field order."""
    for f in fields(obj):
        if f.type in _KINDS:
            check_types(f.type, f.metadata.get("rule"), **{f.name: getattr(obj, f.name)})
