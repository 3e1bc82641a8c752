"""Variance budgets and concentration bounds for the hybrid scheme.

The hybrid estimator averages T independent subsample-and-validate
iterations, so its variance is the per-iteration budget divided by T.
The per-iteration budget adds a subsampling component, which carries a
finite population correction, to a fold-averaging component. Chebyshev
gives a distribution-free tail bound on the deviation of the compounded
measure; Hoeffding sharpens it when losses live in a known interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import (
    ValidationError, _count, _finite, _nonnegative, _positive
)

__all__ = [
    "VarianceBudget",
    "TailBound",
    "srs_variance_component",
    "kfcv_variance_component",
    "hybrid_variance",
    "chebyshev_tail",
    "chebyshev_threshold",
    "hoeffding_tail",
]


@dataclass(frozen=True)
class VarianceBudget:
    """Per-iteration variance split and its per-T total. Both components
    must be finite and >= 0, kept as floats, and ``iterations`` integral
    (5.0 is taken as 5) and >= 1."""

    srs_component: float
    kfcv_component: float
    iterations: int

    def __post_init__(self) -> None:
        iterations = _count("iterations", self.iterations, 1)
        object.__setattr__(self, "iterations", iterations)
        for name in ("srs_component", "kfcv_component"):
            value = _nonnegative(name, getattr(self, name))
            object.__setattr__(self, name, value)

    @property
    def total_per_t(self) -> float:
        """(srs + kfcv) / T: the variance of the T-iteration average."""
        return (self.srs_component + self.kfcv_component) / self.iterations


def srs_variance_component(sigma2: float, n: int, population_n: int) -> float:
    """Variance of a size-n subsample mean: (sigma2/n)(1 - n/N).

    The finite population correction (1 - n/N) vanishes at n = N, where
    the subsample is the whole population. ``sigma2`` must be finite and
    > 0, ``n`` and ``population_n`` integral.
    """
    population_n = _count("population_n", population_n, 1)
    n = _count("n", n, 1, population_n)
    sigma2 = _positive("sigma2", sigma2)
    return (sigma2 / n) * (1.0 - n / population_n)


def kfcv_variance_component(fold_variances: Iterable[float]) -> float:
    """Mean of the per-fold loss variances: (1/k) sum_i Var(L_i); each
    entry must be finite and >= 0."""
    vals = [_nonnegative("fold_variances entry", v) for v in fold_variances]
    if not vals:
        raise ValidationError("fold_variances must be non-empty")
    return sum(vals) / len(vals)


def hybrid_variance(
    sigma2: float,
    n: int,
    population_n: int,
    fold_variances: Iterable[float],
    iterations: int,
) -> VarianceBudget:
    """Assemble the variance budget of the T-iteration average.

    Per iteration the subsampling and fold components add; averaging T
    independent iterations divides the sum by T.
    """
    return VarianceBudget(
        srs_component=srs_variance_component(sigma2, n, population_n),
        kfcv_component=kfcv_variance_component(fold_variances),
        iterations=iterations,
    )


def chebyshev_tail(k_dev: float) -> float:
    """P(|X - EX| >= k_dev * sd) <= min(1, 1/k_dev^2); ``k_dev`` must be
    finite and > 0."""
    k_dev = _positive("k_dev", k_dev)
    return min(1.0, 1.0 / (k_dev * k_dev))


def chebyshev_threshold(
    sigma_hyb2: float, iterations: int, k_dev: float
) -> float:
    """Deviation threshold k_dev * sqrt(sigma_hyb2 / T) for the T-average;
    ``sigma_hyb2`` must be finite and >= 0, ``iterations`` integral and
    >= 1, ``k_dev`` finite and > 0."""
    iterations = _count("iterations", iterations, 1)
    sigma_hyb2 = _nonnegative("sigma_hyb2", sigma_hyb2)
    k_dev = _positive("k_dev", k_dev)
    return k_dev * math.sqrt(sigma_hyb2 / iterations)


class TailBound(NamedTuple):
    """A raw bound value and its probability-capped counterpart."""

    raw: float
    capped: float


def hoeffding_tail(
    epsilon: float, iterations: int, a: float, b: float
) -> TailBound:
    """Two-sided Hoeffding bound for the mean of T losses in [a, b].

    P(|mean - E mean| >= epsilon) <= 2 exp(-2 T epsilon^2 / (b-a)^2).
    The raw value exceeds 1 for loose epsilon (it is 2 at epsilon = 0);
    ``capped`` clamps it to 1 for use as a probability. ``epsilon`` must
    be finite and >= 0, ``iterations`` integral and >= 1, and ``a`` and
    ``b`` finite with b > a.
    """
    iterations = _count("iterations", iterations, 1)
    epsilon = _nonnegative("epsilon", epsilon)
    a, b = _finite("a", a), _finite("b", b)
    if not b > a:
        raise ValidationError(f"need b > a, got [{a}, {b}]")
    width = b - a
    raw = 2.0 * math.exp(
        -2.0 * iterations * epsilon * epsilon / (width * width)
    )
    return TailBound(raw=raw, capped=min(1.0, raw))
