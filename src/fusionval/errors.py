"""The exception type and the argument rules shared across the package.

Each rule is stated once here, with its message: :func:`_number` what a
number is, :func:`_count` what a count is, :func:`_finite`,
:func:`_positive` and :func:`_nonnegative` what a finite, a positive
and a non-negative real are, and :func:`_numbers` what a sequence of
numbers or counts is. Every public boundary applies them rather than a
copy.
"""

import math
import numbers
from collections.abc import Iterable

__all__ = ["ValidationError"]


class ValidationError(ValueError):
    """Raised when an argument violates a documented contract.

    Subclasses ValueError so callers that catch the stdlib type keep
    working, while tests can assert on the package-specific type.
    """


def _number(name: str, value, integral: bool = False):
    """``value``, as an int if ``integral``, or a ValidationError naming
    the field. A float with a fractional part is rejected, not truncated."""
    if type(value) is int:  # the usual case, without the slower ABC checks
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if not integral:
            return value
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    kind = "an integer" if integral else "a real number"
    raise ValidationError(f"{name} must be {kind}, got {value!r}")


def _count(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``, or a ValidationError
    naming the field: integral per :func:`_number` (5.0 is taken as 5;
    5.5, True and "5" are refused)."""
    value = _number(name, value, True)
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return value


def _finite(name: str, value):
    """``value``, a real number per :func:`_number` that is finite, or a
    ValidationError naming the field."""
    value = _number(name, value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def _positive(name: str, value):
    """``value``, a real number per :func:`_number` that is finite and
    > 0, or a ValidationError naming the field."""
    value = _number(name, value)
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be finite and > 0, got {value}")
    return value


def _nonnegative(name: str, value):
    """``value``, a real number per :func:`_number` that is finite and
    >= 0, or a ValidationError naming the field."""
    value = _number(name, value)
    if not 0 <= value < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")
    return value


def _numbers(name: str, values, least: int | None = None) -> tuple:
    """``values`` as a tuple of real numbers per :func:`_number`, or,
    given ``least``, of counts per :func:`_count`; an entry's error
    names it as ``"{name} entry"``."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ValidationError(f"{name} must be a sequence, got {values!r}")
    entry = f"{name} entry"
    if least is None:
        return tuple(_number(entry, v) for v in values)
    return tuple(_count(entry, v, least) for v in values)
