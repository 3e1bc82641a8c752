"""The exception type and the argument rules shared across the package.

Each rule is stated once here, with its message: :func:`_number` what a
number is, :func:`_count` what a count is, :func:`_finite`,
:func:`_positive` and :func:`_nonnegative` what a finite, a positive
and a non-negative real are, :func:`_numbers` what a sequence of
numbers or counts is, and :func:`_vector` what an array argument or
draw is. Every public boundary applies them rather than a copy.
"""

import math
import numbers
from collections.abc import Iterable

import numpy as np

__all__ = ["ValidationError"]


class ValidationError(ValueError):
    """Raised when an argument violates a documented contract.

    Subclasses ValueError so callers that catch the stdlib type keep
    working, while tests can assert on the package-specific type.
    """


def _number(name: str, value, integral: bool = False):
    """``value`` as an int if ``integral``, else as a float, or a
    ValidationError naming the field. A float with a fractional part is
    refused, not truncated, as is a real no float holds (``10**400``)."""
    if type(value) is (int if integral else float):  # the usual cases
        return value
    kind = "an integer" if integral else "a real number"
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if integral and isinstance(value, numbers.Integral):
            return int(value)
        try:
            real = float(value)
        except OverflowError:
            kind = "a real number a float can hold"
        else:
            if not integral:
                return real
            if real.is_integer():
                return int(value)
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
    """``value`` as a float per :func:`_number` that is finite, or a
    ValidationError naming the field."""
    value = _number(name, value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value


def _positive(name: str, value):
    """``value`` as a float per :func:`_number` that is finite and > 0,
    or a ValidationError naming the field."""
    value = _number(name, value)
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be finite and > 0, got {value}")
    return value


def _nonnegative(name: str, value):
    """``value`` as a float per :func:`_number` that is finite and >= 0,
    or a ValidationError naming the field."""
    value = _number(name, value)
    if not 0 <= value < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")
    return value


def _numbers(name: str, values, least: int | None = None) -> tuple:
    """``values`` as a tuple of floats per :func:`_number`, or,
    given ``least``, of counts per :func:`_count`; an entry's error
    names it as ``"{name} entry"``."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ValidationError(f"{name} must be a sequence, got {values!r}")
    entry = f"{name} entry"
    if least is None:
        return tuple(_number(entry, v) for v in values)
    return tuple(_count(entry, v, least) for v in values)


def _holds_bool(values) -> bool:
    """Whether ``values`` is a bool or bool array (numpy's too), or a
    list or tuple nesting one."""
    if isinstance(values, (list, tuple)):
        return any(map(_holds_bool, values))
    return isinstance(values, bool) or getattr(values, "dtype", None) == bool


def _vector(
    name: str, values, least: int = 1, most: int | None = None,
    integral: bool = False, columns: int | None = None,
) -> np.ndarray:
    """``values`` as a 1-D array of ``least`` to ``most`` entries (no
    bound if None) or, given ``columns``, rows of ``columns`` entries;
    else a ValidationError naming the field. Reals come back as float64,
    a float64 array as given; ``integral`` takes integers only, in their
    own dtype. Bool (at any depth), str, complex, object and ragged
    entries are refused."""
    try:
        array = np.asarray(values)
    except ValueError:  # numpy's refusal of a ragged nesting
        got = "a ragged sequence"
    else:
        if _holds_bool(values):
            got = "a bool entry"
        elif (
            array.ndim  # a 0-d array has no length
            and array.shape[1:] == ((columns,) if columns else ())
            and array.dtype.kind in ("iu" if integral else "iuf")
            and least <= len(array)
            and (most is None or len(array) <= most)
        ):
            return array if integral else array.astype(np.float64, copy=False)
        else:
            got = f"{array.dtype} of shape {array.shape}"
    if least == most:
        length = least
    else:
        length = f"at least {least}" if most is None else f"{least} to {most}"
    kind = "integers" if integral else "reals"
    form = f"(trials x {columns}) table" if columns else "vector"
    raise ValidationError(
        f"{name} must be a {form} of {kind} of length {length}, got {got}"
    )
