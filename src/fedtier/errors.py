"""Exception types shared across the package, and its number-type and seed rules."""

import numbers
from dataclasses import fields


class ConfigurationError(ValueError):
    """Invalid dimensions, ranks, budgets, or other caller-supplied settings."""


class PreconditionError(ValueError):
    """An operation's input contract was violated (e.g. a non-orthonormal basis)."""


class DegenerateInputError(ValueError):
    """Input is numerically degenerate where a direction or scale is required."""


class GenerationError(RuntimeError):
    """Synthetic data generation could not satisfy its constraints."""


_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


def has_type(value, kind: type) -> bool:
    """An int takes any Integral, a float any Real, and a bool is neither."""
    return not isinstance(value, bool) and isinstance(value, _KINDS[kind][0])


def check_types(kind: type, **values):
    """Raise ConfigurationError naming the first of values not of kind."""
    for name, value in values.items():
        if not has_type(value, kind):
            raise ConfigurationError(f"{name} must be {_KINDS[kind][1]}, got {value!r}")


def check_seed(**values):
    """Raise ConfigurationError naming the first of values not an integer >= 0."""
    for name, value in values.items():
        if not has_type(value, int) or value < 0:
            raise ConfigurationError(f"{name} must be a non-negative integer, got {value!r}")


def check_field_types(obj):
    """check_types on each int and float field of the dataclass obj."""
    for f in fields(obj):
        if f.type in _KINDS:
            check_types(f.type, **{f.name: getattr(obj, f.name)})
