"""Simple random sampling without replacement.

Draws a uniform size-m subset of a dataset's indices, exposes the
inclusion-count moments of the scheme, and draws the random partition
fraction used by the experiment protocol.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ValidationError
from .rng import RngStream

__all__ = [
    "FRACTION_RANGE",
    "SampleView",
    "srs_sample",
    "sample_values",
    "holdout_values",
    "inclusion_moments",
    "draw_partition_fraction",
]

# default partition-fraction window for all experiments
FRACTION_RANGE = (0.60, 0.90)


def _number(name: str, value, integral: bool = False):
    """``value``, as an int if ``integral``, or a ValidationError naming
    the field. A float with a fractional part is rejected, not truncated."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if not integral:
            return value
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    kind = "an integer" if integral else "a real number"
    raise ValidationError(f"{name} must be {kind}, got {value!r}")


def _numbers(name: str, values, integral: bool = False) -> tuple:
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ValidationError(f"{name} must be a sequence, got {values!r}")
    return tuple(_number(f"{name} entry", v, integral) for v in values)


def _fraction_window(value) -> tuple:
    """``value`` as a ``fraction_range`` tuple (low, high) with
    0 < low < high <= 1, or a ValidationError naming that field."""
    window = _numbers("fraction_range", value)
    if len(window) != 2:
        raise ValidationError(
            f"fraction_range must be a pair (low, high), got {window}"
        )
    low, high = window
    if not 0.0 < low < high <= 1.0:
        raise ValidationError(
            f"fraction_range must satisfy 0 < low < high <= 1, got {window}"
        )
    return window


@dataclass(frozen=True, eq=False)
class SampleView:
    """Indices of one drawn subset, in canonical sorted order."""

    indices: np.ndarray
    m: int
    source_n: int

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.source_n:
            raise ValidationError(
                f"need 1 <= m <= source_n, got m={self.m}, "
                f"source_n={self.source_n}"
            )
        if self.indices.ndim != 1 or len(self.indices) != self.m:
            raise ValidationError(
                f"indices must be a length-{self.m} vector"
            )
        diffs = np.diff(self.indices)
        if len(diffs) and not (diffs > 0).all():
            raise ValidationError("indices must be strictly increasing")
        if self.indices[0] < 0 or self.indices[-1] >= self.source_n:
            raise ValidationError(
                f"indices must lie in [0, {self.source_n})"
            )
        self.indices.setflags(write=False)

    @classmethod
    def _from_checked(
        cls, indices: np.ndarray, m: int, source_n: int
    ) -> "SampleView":
        """A view of ``indices`` that already passed the constructor's
        checks."""
        indices.setflags(write=False)
        view = object.__new__(cls)
        object.__setattr__(view, "indices", indices)
        object.__setattr__(view, "m", m)
        object.__setattr__(view, "source_n", source_n)
        return view


def srs_sample(data: Dataset, m: int, stream: RngStream) -> SampleView:
    """Draw a uniform random m-subset of ``data``'s indices.

    Every index has inclusion probability m/n and every size-m subset is
    equally likely. Indices are returned sorted ascending.
    """
    if not 1 <= m <= data.n:
        raise ValidationError(
            f"need 1 <= m <= n, got m={m}, n={data.n}"
        )
    picked = _draw_subset(data.n, m, stream)
    return SampleView._from_checked(picked, m, data.n)


_MASK_MIN_N = 512


def _draw_subset(n: int, m: int, stream: RngStream) -> np.ndarray:
    """Draw :func:`srs_sample`'s m-subset of range(n) from ``stream`` and
    return it sorted ascending, checked as :class:`SampleView` checks
    its indices: m integers, all in [0, n), all distinct.

    The draw is sorted, O(m log m), when m is below a third of n or n
    is below ``_MASK_MIN_N``. Otherwise it is marked in a length-n
    boolean mask that is read back, O(n), which then costs less than
    the sort; on fewer points the mask's fixed cost outweighs the sort.
    """
    picked = stream.generator.choice(n, size=m, replace=False, shuffle=False)
    if picked.shape != (m,) or picked.dtype.kind not in "iu":
        raise ValidationError(
            f"subset draw must be {m} integers, got shape {picked.shape} "
            f"of dtype {picked.dtype}"
        )
    if 3 * m < n or n < _MASK_MIN_N:
        picked.sort()
        if picked[0] < 0 or picked[-1] >= n:
            raise ValidationError(f"subset indices must lie in [0, {n})")
        if not (picked[1:] > picked[:-1]).all():
            raise ValidationError("subset indices must be distinct")
        return picked
    # a negative index would wrap around in the scatter below
    if picked.min() < 0:
        raise ValidationError(f"subset indices must lie in [0, {n})")
    mask = np.zeros(n, dtype=bool)
    try:
        mask[picked] = True
    except IndexError:
        raise ValidationError(f"subset indices must lie in [0, {n})") from None
    # m marks in range: fewer than m set means an index repeats
    if np.count_nonzero(mask) != m:
        raise ValidationError("subset indices must be distinct")
    return np.flatnonzero(mask)


def sample_values(data: Dataset, view: SampleView) -> np.ndarray:
    """Values of the sampled subset."""
    if view.source_n != data.n:
        raise ValidationError(
            f"view was drawn from n={view.source_n}, dataset has n={data.n}"
        )
    return data.values[view.indices]


def holdout_values(data: Dataset, view: SampleView) -> np.ndarray:
    """Values of the unsampled complement (empty when m = n)."""
    if view.source_n != data.n:
        raise ValidationError(
            f"view was drawn from n={view.source_n}, dataset has n={data.n}"
        )
    mask = np.ones(data.n, dtype=bool)
    mask[view.indices] = False
    return data.values[mask]


def inclusion_moments(n: int, m: int) -> tuple[float, float]:
    """Inclusion moments of size-m SRS over n indices.

    Each index enters the sample with probability m/n, so the expected
    inclusion total is m and the summed marginal indicator variance is
    m(1 - m/n). The variance term vanishes at m = n, where inclusion is
    certain; it is the finite-population correction factor the variance
    budget builds on.
    """
    if not 1 <= m <= n:
        raise ValidationError(f"need 1 <= m <= n, got m={m}, n={n}")
    return float(m), float(m) * (1.0 - m / n)


def draw_partition_fraction(
    stream: RngStream,
    low: float = FRACTION_RANGE[0],
    high: float = FRACTION_RANGE[1],
) -> float:
    """Draw the train-partition fraction uniformly from [low, high), a
    window that must satisfy ``fraction_range``'s rule."""
    low, high = _fraction_window((low, high))
    return float(stream.generator.uniform(low, high))
