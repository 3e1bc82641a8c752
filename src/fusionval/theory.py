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
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import (
    ValidationError, _count, _finite, _mean, _nonnegative, _numbers, _positive
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
    must be finite and >= 0, kept as floats, with a finite sum, and
    ``iterations`` integral (5.0 is taken as 5) and >= 1."""

    srs_component: float
    kfcv_component: float
    iterations: int

    def __post_init__(self) -> None:
        iterations = _count("iterations", self.iterations, 1, as_float=True)
        object.__setattr__(self, "iterations", iterations)
        for name in ("srs_component", "kfcv_component"):
            value = _nonnegative(name, getattr(self, name))
            object.__setattr__(self, name, value)
        if not math.isfinite(self.srs_component + self.kfcv_component):
            raise ValidationError(
                "srs_component + kfcv_component must be finite, got "
                f"{self.srs_component!r} + {self.kfcv_component!r}"
            )

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
    population_n = _count("population_n", population_n, 1, as_float=True)
    n = _count("n", n, 1, population_n)
    sigma2 = _positive("sigma2", sigma2)
    return (sigma2 / n) * (1.0 - n / population_n)


def kfcv_variance_component(fold_variances: Iterable[float]) -> float:
    """Mean of the per-fold loss variances: (1/k) sum_i Var(L_i); a
    sequence per ``errors._numbers``, each entry finite and >= 0."""
    entries = _numbers("fold_variances", fold_variances)
    vals = [_nonnegative("fold_variances entry", v) for v in entries]
    if not vals:
        raise ValidationError("fold_variances must be non-empty")
    return _mean(vals)


def hybrid_variance(
    sigma2: float,
    n: int,
    population_n: int,
    fold_variances: Iterable[float],
    iterations: int,
) -> VarianceBudget:
    """Assemble the variance budget of the T-iteration average.

    Per iteration the subsampling and fold components add; averaging T
    independent iterations divides the sum by T. The budget is a
    conservative bound on Var(L*), not an estimate of it: its fold term
    is one fold loss's variance, while L* averages each pass's mean
    fold loss. On one dataset of n = 2 000 at T = 10, alpha = 1 and
    k = 5, it is 15.6 times the variance of 400 ``fsv_run`` replicates'
    L*, with per-fold variances from 2 000 passes (a seeded test checks
    this; a false alarm has odds below 1e-140).
    """
    return VarianceBudget(
        srs_component=srs_variance_component(sigma2, n, population_n),
        kfcv_component=kfcv_variance_component(fold_variances),
        iterations=iterations,
    )


def chebyshev_tail(k_dev: float) -> float:
    """P(|X - EX| >= k_dev * sd) <= min(1, 1/k_dev^2); ``k_dev`` must be
    finite and > 0. The ratio is squared, so no k_dev underflows to 0."""
    ratio = 1.0 / _positive("k_dev", k_dev)  # inf past 1 / float max
    return min(1.0, ratio * ratio)


def chebyshev_threshold(
    sigma_hyb2: float, iterations: int, k_dev: float
) -> float:
    """Deviation threshold k_dev * sqrt(sigma_hyb2 / T) for the T-average;
    ``sigma_hyb2`` must be finite and >= 0, ``iterations`` integral and
    >= 1, ``k_dev`` finite and > 0, and the threshold a float."""
    iterations = _count("iterations", iterations, 1, as_float=True)
    sd = math.sqrt(_nonnegative("sigma_hyb2", sigma_hyb2) / iterations)
    threshold = _positive("k_dev", k_dev) * sd
    if threshold == math.inf:
        raise ValidationError(
            f"k_dev must be at most {sys.float_info.max / sd:.6g} on a "
            f"deviation of {sd:.6g}, so that the threshold is a float, "
            f"got {k_dev!r}"
        )
    return threshold


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
    ``b`` finite with b > a. The ratio epsilon / (b - a) is squared, so
    neither an underflow nor an overflow of the squares can give 0 / 0
    or inf / inf.
    """
    iterations = _count("iterations", iterations, 1, as_float=True)
    epsilon = _nonnegative("epsilon", epsilon)
    a, b = _finite("a", a), _finite("b", b)
    if not b > a:
        raise ValidationError(f"b must be > a, got [{a}, {b}]")
    ratio = epsilon / (b - a)  # b - a may round to inf: then 0
    raw = 2.0 * math.exp(-2.0 * ratio * ratio * iterations)
    return TailBound(raw=raw, capped=min(1.0, raw))
