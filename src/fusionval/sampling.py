"""Simple random sampling without replacement.

Draws a uniform size-m subset of a dataset's indices, exposes the
inclusion-count moments of the scheme, and draws the random partition
fraction used by the experiment protocol. A :class:`SampleView` stores
the subset's sorted indices and the dataset size ``source_n``; the
subset's size m is ``len(view.indices)``. The indices, a list too, and
each subset draw are checked as ``errors._vector``'s integer vector.
:func:`_check_subset` states what a sorted subset must be, for the view
and the sorted draw, and :func:`_index_mask` what distinct indices in
range(n) are, for the masked draw and ``FoldPlan``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ValidationError, _count, _numbers, _vector
from .rng import RngStream

__all__ = [
    "FRACTION_RANGE",
    "SampleView",
    "srs_sample",
    "holdout_values",
    "inclusion_moments",
    "draw_partition_fraction",
]

# default partition-fraction window for all experiments
FRACTION_RANGE = (0.60, 0.90)


def _fraction_window(value) -> tuple:
    """``value`` as a ``fraction_range`` pair of floats (low, high) with
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


def _check_subset(indices: np.ndarray, n: int) -> None:
    """``indices`` is a non-empty subset of range(n) in canonical form:
    strictly increasing, so distinct, and in [0, n)."""
    if indices[0] < 0 or indices[-1] >= n:
        raise ValidationError(f"indices must lie in [0, {n})")
    if not (indices[1:] > indices[:-1]).all():
        raise ValidationError(
            "indices must be strictly increasing, so distinct"
        )


def _index_mask(indices: np.ndarray, n: int, what: str) -> np.ndarray:
    """The length-n boolean mask marking the integer vector ``indices``,
    or a ValidationError naming ``what`` unless they are distinct and in
    [0, n). O(n)."""
    # a negative index would wrap around in the scatter below
    if indices.min() < 0:
        raise ValidationError(f"{what} must lie in [0, {n})")
    mask = np.zeros(n, dtype=bool)
    try:
        mask[indices] = True
    except IndexError:
        raise ValidationError(f"{what} must lie in [0, {n})") from None
    # every mark in range: fewer marks than indices means one repeats
    if np.count_nonzero(mask) != len(indices):
        raise ValidationError(f"{what} must be distinct")
    return mask


@dataclass(frozen=True, eq=False)
class SampleView:
    """Indices of one drawn subset of range(source_n), in canonical
    sorted order; the subset's size m is ``len(indices)``."""

    indices: np.ndarray
    source_n: int

    def __post_init__(self) -> None:
        n = _count("source_n", self.source_n, 1)
        indices = _vector("indices", self.indices, 1, n, integral=True)
        _check_subset(indices, n)
        indices.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "source_n", n)

    @classmethod
    def _from_checked(cls, indices: np.ndarray, source_n: int) -> "SampleView":
        """A view of ``indices`` that already passed the constructor's
        checks."""
        indices.setflags(write=False)
        view = object.__new__(cls)
        object.__setattr__(view, "indices", indices)
        object.__setattr__(view, "source_n", source_n)
        return view


def srs_sample(data: Dataset, m: int, stream: RngStream) -> SampleView:
    """Draw a uniform random m-subset of ``data``'s indices.

    Every index has inclusion probability m/n and every size-m subset is
    equally likely. Indices are returned sorted ascending. ``m`` must be
    integral (5.0 is taken as 5).
    """
    n = data.n
    m = _count("m", m, 1, n)
    return SampleView._from_checked(_draw_subset(n, m, stream.generator), n)


def _draw_subset(
    n: int, m: int, generator: np.random.Generator
) -> np.ndarray:
    """Draw :func:`srs_sample`'s m-subset of range(n) from ``generator``
    and return it sorted ascending, checked: m distinct integers in
    [0, n). Below a third of n the draw is sorted, O(m log m), and
    checked by :func:`_check_subset`; from a third up, marking it with
    :func:`_index_mask` and reading the mask back, O(n), costs less.
    """
    picked = generator.choice(n, size=m, replace=False, shuffle=False)
    picked = _vector("subset draw", picked, m, m, integral=True)
    if 3 * m < n:
        picked.sort()
        _check_subset(picked, n)
        return picked
    return _index_mask(picked, n, "subset indices").nonzero()[0]


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
    budget builds on. ``n`` and ``m`` must be integral (5.0 is taken
    as 5).
    """
    n = _count("n", n, 1, as_float=True)
    m = _count("m", m, 1, n)
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
