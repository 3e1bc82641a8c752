"""The exception type and the argument rules shared across the package.

Each rule is stated once here, with its message: :func:`_number` what a
number is, :func:`_count` what a count is and which counts must fit a
float, :func:`_passes` how many k-fold passes a call may batch,
:func:`_finite`, :func:`_positive` and :func:`_nonnegative` what a
finite, a positive and a non-negative real are, :func:`_alpha` what a
shrinkage factor is, :func:`_numbers` what a sequence of numbers or
counts is, :func:`_vector` what an array argument, a draw or a stored
result's array is, and :func:`_summable` what values the pass kernel,
the fit and the loss can sum. :func:`_shown` prints a refused value,
however large. ``_SUM_LIMIT`` is the one float-max margin behind the
sum rules, ``_MAX_ENTRIES`` the most entries a count may size an array
to, and :func:`_mean` the one way the package averages. Every public
boundary applies them rather than a copy.
"""

import math
import numbers
import sys
from collections.abc import Iterable

import numpy as np

__all__ = ["ValidationError"]

_FLOAT_MAX = sys.float_info.max

# The most n times a squared scale may reach. Every average the package
# takes is :func:`_mean`'s, which cannot overflow on finite entries, so
# the one sum a study must keep finite is the pass kernel's
# pilot-shifted sums over a dataset of n points. numpy's ziggurat draws
# no standard normal z above 13.71 in size (its tail step is
# r + ln(2**53)/r, r = 3.654), and rounding mu + z*sigma to a float at
# most doubles its distance from mu. So a drawn dataset's range
# (max - min), with its true mean mu among the values, stays under
# 2 * 27.42 * sigma < 64 * sigma, and n * sigma2 <= _SUM_LIMIT, the
# study's rule, gives n * (range / 64)**2 <= _SUM_LIMIT,
# :func:`_summable`'s rule, for every dataset a study draws.
_SUM_LIMIT = _FLOAT_MAX / 2**12

# The most 8-byte entries numpy can address, the ceiling of every count
# that sizes an array: numpy refuses more with a bare ValueError.
_MAX_ENTRIES = np.iinfo(np.intp).max // 8


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
    raise ValidationError(f"{name} must be {kind}, got {_shown(value)}")


def _count(
    name: str, value, least: int, most: int | None = None,
    as_float: bool = False,
) -> int:
    """``value`` as an int from ``least`` to ``most`` (no upper bound if
    None), or a ValidationError naming the field: integral per
    :func:`_number` (5.0 is taken as 5; 5.5, True and "5" are refused).
    A count the package computes with as a float, ``as_float``, must
    also be at most the float maximum; a seed or a stream address never
    becomes a float, so it takes any int."""
    value = _number(name, value, True)
    if value < least:
        rule = f">= {least}"
    elif most is not None and value > most:
        rule = f"<= {most}"
    elif as_float and value > _FLOAT_MAX:
        rule = "at most the float maximum, so that it converts to a float"
    else:
        return value
    raise ValidationError(f"{name} must be {rule}, got {_shown(value)}")


def _passes(name: str, value, k: int) -> int:
    """``value`` as a count of passes, each of ``k`` folds, per
    :func:`_count`: at least 1 and at most ``_MAX_ENTRIES // k``, as the
    pass kernel holds passes x k fold losses."""
    return _count(name, value, 1, _MAX_ENTRIES // k)


def _shown(value) -> str:
    """``repr(value)``, or for a rational past the float maximum its 6
    significant digits: Python refuses to print an int of over 4300."""
    if not isinstance(value, numbers.Rational) or abs(value) <= _FLOAT_MAX:
        return repr(value)
    from decimal import Context  # only a refusal this rare needs it

    shown = Context(prec=6).divide(value.numerator, value.denominator)
    return f"{shown.normalize():g}"


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


def _alpha(value) -> float:
    """``value`` as a float per :func:`_number` in (0, 1], the one rule
    for a shrinkage factor ``alpha``, or a ValidationError naming it."""
    value = _number("alpha", value)
    if not 0.0 < value <= 1.0:
        raise ValidationError(f"alpha must be in (0, 1], got {value}")
    return value


def _nonnegative(name: str, value):
    """``value`` as a float per :func:`_number` that is finite and >= 0,
    or a ValidationError naming the field."""
    value = _number(name, value)
    if not 0 <= value < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")
    return value


def _numbers(
    name: str, values, least: int | None = None, most: int | None = None,
) -> tuple:
    """``values`` as a tuple of floats per :func:`_number`, or,
    given ``least``, of counts per :func:`_count` (``most`` passed on);
    an entry's error names it as ``"{name} entry"``."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ValidationError(f"{name} must be a sequence, got {values!r}")
    entry = f"{name} entry"
    if least is None:
        return tuple(_number(entry, v) for v in values)
    return tuple(_count(entry, v, least, most) for v in values)


def _summable(
    name: str, values: np.ndarray, sums: str = "the kernel's sums",
    **point: float,
) -> None:
    """A ValidationError naming the field unless n * (range / 64)**2 <=
    ``_SUM_LIMIT`` for the finite float64 vector ``values``, so
    n * range**2 <= float max, range being max - min of the values and,
    if given, one finite named ``point``: a dataset's ``true_mean`` or
    a model's ``fitted_mean``. Every centred sum the pass kernel takes
    (a fold's, a sample's or the dataset's M2, a between-group term) is
    at most n * range**2 / 4, as no variance exceeds (range / 2)**2, and
    a complement's difference of two such sums at most twice that; so
    each stays finite, as does a value's distance from the point. The
    message names whose ``sums`` the rule keeps finite: the kernel's,
    unless the caller says otherwise."""
    # Python floats: an overflowing range warns nothing
    ends = [float(values.min()), float(values.max()), *point.values()]
    spread = max(ends) - min(ends)
    scale = spread / 64
    if not len(values) * scale * scale <= _SUM_LIMIT:
        most = 64 * math.sqrt(_SUM_LIMIT / len(values))
        got = f"{spread:.6g}"
        for label, value in point.items():
            got += f" with {label} {value:.6g}"
        raise ValidationError(
            f"{name} must span at most {most:.6g} (max - min) on "
            f"n={len(values)} points, so that {sums} stay finite, got {got}"
        )


def _mean(x, axis: int | None = None, weights=1.0):
    """The mean of ``weights * x`` over ``axis``, ``x`` an array or a
    sequence of reals: a float over every entry if ``axis`` is None,
    else an array. It is taken at the power of two that brings max|x|
    along the axis into [0.5, 1), the weights multiplied in after that
    scaling, so that neither a sum of many large entries nor a weight
    above 1 on one can overflow. The scaling is exact unless it takes
    some entry below the normal range, 2**1021 times smaller than the
    largest, so the result otherwise has the bits of
    ``(weights * x).mean(axis)`` wherever that is finite."""
    e = np.frexp(np.abs(x).max(axis, keepdims=True))[1]
    mean = np.ldexp((weights * np.ldexp(x, -e)).mean(axis), e.squeeze(axis))
    return float(mean) if axis is None else mean


def _holds_bool(values) -> bool:
    """Whether ``values`` is a bool or bool array (numpy's too), or a
    list or tuple nesting one."""
    if isinstance(values, (list, tuple)):
        return any(map(_holds_bool, values))
    return isinstance(values, bool) or getattr(values, "dtype", None) == bool


def _vector(
    name: str, values, least: int = 1, most: int | None = None,
    integral: bool = False, columns: int | tuple[int, ...] | None = None,
) -> np.ndarray:
    """``values`` as a 1-D array of ``least`` to ``most`` entries (no
    bound if None) or, given ``columns``, rows of ``columns`` entries,
    or of that shape if it is a tuple (``(3, 6)``: a row of 3 x 6);
    else a ValidationError naming the field. Reals must be finite and
    come back as float64, a float64 array as given; ``integral`` takes
    integers only, in their own dtype. Bool (at any depth), str,
    complex, object and ragged entries are refused."""
    row = (columns,) if isinstance(columns, int) else tuple(columns or ())
    try:
        array = np.asarray(values)
    except ValueError:  # numpy's refusal of a ragged nesting
        got = "a ragged sequence"
    else:
        if _holds_bool(values):
            got = "a bool entry"
        elif (
            array.ndim  # a 0-d array has no length
            and array.shape[1:] == row
            and array.dtype.kind in ("iu" if integral else "iuf")
            and least <= len(array)
            and (most is None or len(array) <= most)
        ):
            if integral:
                return array
            array = array.astype(np.float64, copy=False)
            if not np.isfinite(array).all():
                raise ValidationError(f"{name} must be finite")
            return array
        else:
            got = f"{array.dtype} of shape {array.shape}"
    if least == most:
        length = least
    else:
        length = f"at least {least}" if most is None else f"{least} to {most}"
    kind = "integers" if integral else "reals"
    shape = " x ".join(map(str, ("trials", *row)))
    form = f"({shape}) table" if row else "vector"
    raise ValidationError(
        f"{name} must be a {form} of {kind} of length {length}, got {got}"
    )
