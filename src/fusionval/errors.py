"""The exception type and the argument rules shared across the package.

Each rule is stated once here, with its message: :func:`_number` what a
number is, :func:`_count` what a count is, :func:`_finite`,
:func:`_positive` and :func:`_nonnegative` what a finite, a positive
and a non-negative real are, :func:`_numbers` what a sequence of
numbers or counts is, :func:`_vector` what an array argument or
draw is, and :func:`_summable` what values the pass kernel can sum.
``_SUM_LIMIT`` is the one float-max margin behind the sum rules. Every
public boundary applies them rather than a copy.
"""

import math
import numbers
from collections.abc import Iterable

import numpy as np

__all__ = ["ValidationError"]

# The most N times a squared scale may reach. A study's largest sums
# hold up to N terms: a dataset's centred sum of squares (N = n), a
# cell's summary means (N = t) and KFCV's means of its repetitions*k
# training means and variances. numpy's ziggurat draws no standard
# normal z above 13.71 in size (its tail step is r + ln(2**53)/r,
# r = 3.654), and rounding mu + z*sigma to a float at most doubles its
# distance from mu. So a term is at most |mu| + 27.42*sigma or, as a
# loss or variance, 5 * 27.42**2 * sigma2 = 3760 * sigma2, and N*|mu|
# and N*sigma2 at most float max / 2**12 keep every sum finite. The
# same distance bound puts a drawn dataset's range (max - min) under
# 2 * 27.42 * sigma < 64 * sigma, so n * (range / 64)**2 <= _SUM_LIMIT,
# :func:`_summable`'s rule, holds for every dataset a study draws.
_SUM_LIMIT = float(np.finfo(np.float64).max) / 2**12


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


def _count(name: str, value, least: int, most: int | None = None) -> int:
    """``value`` as an int from ``least`` to ``most`` (no upper bound if
    None), or a ValidationError naming the field: integral per
    :func:`_number` (5.0 is taken as 5; 5.5, True and "5" are refused)."""
    value = _number(name, value, True)
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValidationError(f"{name} must be <= {most}, got {value}")
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


def _summable(name: str, values: np.ndarray) -> None:
    """A ValidationError naming the field unless the float64 vector
    ``values`` is finite and n * (range / 64)**2 <= ``_SUM_LIMIT``, so
    n * range**2 <= float max, range being max - min. Every centred sum
    the pass kernel takes (a fold's, a sample's or the dataset's M2, a
    between-group term) is at most n * range**2 / 4, as no variance
    exceeds (range / 2)**2, and a complement's difference of two such
    sums at most twice that; so each stays finite."""
    # Python floats: a non-finite or overflowing range warns nothing
    spread = float(values.max()) - float(values.min())
    scale = spread / 64  # nan or inf when some value is not finite
    if not len(values) * scale * scale <= _SUM_LIMIT:
        if not np.isfinite(values).all():
            raise ValidationError(f"{name} must be finite")
        most = 64 * math.sqrt(_SUM_LIMIT / len(values))
        raise ValidationError(
            f"{name} must span at most {most:.6g} (max - min) on "
            f"n={len(values)} points, so that the kernel's sums stay "
            f"finite, got {spread:.6g}"
        )


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
