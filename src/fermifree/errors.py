"""Exception types raised on contract violations, and the argument checks
that every module shares: a type rule (`instance`), number rules with an
optional lower bound (`integer`, `real`) and the array rule (`array`).  Each
returns the checked value and builds its message only when the check fails.
"""

from itertools import chain

import numpy as np


class ValidationError(ValueError):
    """An input violates a documented invariant (non-unit trace, bad norm, ...)."""


class CapacityError(ValidationError):
    """The requested orbital count exceeds the configured ceiling."""


def instance(value, kinds):
    """`value`, if it is an instance of the class or union of classes `kinds`."""
    if not isinstance(value, kinds):
        names = " or ".join(kind.__name__ for kind in getattr(kinds, "__args__", (kinds,)))
        raise ValidationError(f"expected a {names}, not {type(value).__name__}")
    return value


def _at_least(number, low, what: str, value):
    """`number`, the checked form of `value`, if `low` is None or it is >= `low`."""
    if low is not None and number < low:
        raise ValidationError(f"{what} must be >= {low}, got {value}")
    return number


def integer(value, what: str, low=None) -> int:
    """`value` as an int, at least `low` when given; Python and numpy integers
    only, so no bool, float or str."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return _at_least(int(value), low, what, value)


def real(value, what: str, low=None) -> float:
    """`value` as a finite float, at least `low` when given; Python and numpy
    reals only, so no bool or str."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    if not np.isfinite(value):
        raise ValidationError(f"{what} must be finite, got {value}")
    return _at_least(float(value), low, what, value)


def array(value, what: str, shape=None, dtype=complex) -> np.ndarray:
    """`value` as a finite array of `dtype` (not copied if it already is one), of
    `shape` when given, where None matches any length and a leading ... any
    leading axes.  Only rectangular arrays of numbers pass: integers, reals and,
    unless `dtype` is float, complex numbers; no str, bool or object entries."""
    try:
        array = np.asarray(value)
    except ValueError as exc:  # ragged, or nested deeper than numpy allows
        raise ValidationError(f"{what} is not a rectangular array: {exc}") from exc
    if array.dtype.kind not in ("iuf" if dtype is float else "iufc"):
        raise ValidationError(f"{what} must be numbers, got dtype {array.dtype}")
    if isinstance(value, (list, tuple)):
        # numpy reads True or False among numbers as 1 or 0, so look at the
        # leaves: Python and numpy booleans, and 0-d arrays of booleans
        leaves = [value]
        for _ in range(array.ndim):
            leaves = chain.from_iterable(leaves)
        leaves = list(leaves)
        kinds = set(map(type, leaves))
        arrays = any(issubclass(kind, np.ndarray) for kind in kinds) and any(
            isinstance(leaf, np.ndarray) and leaf.dtype == bool for leaf in leaves
        )
        if arrays or not {bool, np.bool_}.isdisjoint(kinds):
            raise ValidationError(f"{what} must be numbers, not true or false")
    array = array.astype(dtype, copy=False)
    if shape is not None and array.shape != shape:
        if shape[:1] == (...,):
            shape = (None,) * (array.ndim + 1 - len(shape)) + shape[1:]
        if len(shape) != array.ndim or any(n not in (None, m) for n, m in zip(shape, array.shape)):
            raise ValidationError(f"{what} has shape {array.shape}, expected {shape}")
    if not np.isfinite(array).all():
        raise ValidationError(f"{what} has non-finite entries")
    return array
