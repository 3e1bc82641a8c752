"""Per-trial metrics and their mean/min/max summaries.

Conventions, applied identically to every validation method:

* ``mean_est`` and ``var_est`` are the method's parameter estimates.
* ``mse`` is the fitted model's loss on held-out data.
* ``bias`` is the absolute deviation of a single validation-fold loss
  from the true variance.
* ``roc_me`` and ``roc_ve`` are the absolute deviations of the two
  estimates from the true parameters, used as convergence-rate proxies;
  for an unbiased Gaussian mean estimate with standard deviation s the
  expected value is sqrt(2/pi) * s.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ValidationError

__all__ = [
    "METRIC_FIELDS",
    "Method",
    "TrialMetrics",
    "Aggregate",
    "MethodSummary",
    "trial_metrics",
    "metric_table",
    "summarize",
]


class Method(str, Enum):
    SRS = "SRS"
    KFCV = "KFCV"
    FSV = "FSV"


@dataclass(frozen=True)
class TrialMetrics:
    mean_est: float
    var_est: float
    mse: float
    bias: float
    roc_me: float
    roc_ve: float

    def scaled(self, factor: float) -> "TrialMetrics":
        """Every field multiplied by ``factor`` (must be positive)."""
        if not factor > 0:
            raise ValidationError(f"factor must be > 0, got {factor}")
        return TrialMetrics(
            *(factor * getattr(self, f) for f in METRIC_FIELDS)
        )


METRIC_FIELDS: tuple[str, ...] = tuple(
    f.name for f in fields(TrialMetrics)
)


class Aggregate(NamedTuple):
    mean: float
    min: float
    max: float


@dataclass(frozen=True)
class MethodSummary:
    """Mean/min/max of each metric over one cell's trials."""

    method: Method
    n: int
    t: int
    stats: dict[str, Aggregate]

    def __post_init__(self) -> None:
        if set(self.stats) != set(METRIC_FIELDS):
            raise ValidationError(
                f"stats must cover exactly {METRIC_FIELDS}"
            )
        for name, agg in self.stats.items():
            if not agg.min <= agg.mean <= agg.max:
                raise ValidationError(
                    f"{name}: need min <= mean <= max, got {agg}"
                )


def metric_table(
    mean_est,
    var_est,
    mse,
    true_mean: float,
    true_var: float,
    fold_loss_for_bias,
) -> np.ndarray:
    """Metric rows of many trials at once, against ground truth.

    The per-trial inputs are scalars or equal-length vectors; the result
    has one row per trial and one column per name in ``METRIC_FIELDS``.
    """
    if not true_var > 0:
        raise ValidationError(f"true_var must be > 0, got {true_var}")
    mean_est, var_est, mse, fold_loss = (
        np.atleast_1d(np.asarray(a, dtype=np.float64))
        for a in (mean_est, var_est, mse, fold_loss_for_bias)
    )
    return np.column_stack(
        (
            mean_est,
            var_est,
            mse,
            np.abs(fold_loss - true_var),
            np.abs(mean_est - true_mean),
            np.abs(var_est - true_var),
        )
    )


def trial_metrics(
    mean_est: float,
    var_est: float,
    mse: float,
    true_mean: float,
    true_var: float,
    fold_loss_for_bias: float,
) -> TrialMetrics:
    """Assemble one trial's metric row against ground truth."""
    row = metric_table(
        mean_est, var_est, mse, true_mean, true_var, fold_loss_for_bias
    )
    return TrialMetrics(*row[0].tolist())


def summarize(
    trials: Iterable[TrialMetrics], method: Method, n: int, t: int
) -> MethodSummary:
    """Aggregate trials of one (method, cell) into mean/min/max rows."""
    rows = list(trials)
    if not rows:
        raise ValidationError("need at least one trial to summarize")
    stats: dict[str, Aggregate] = {}
    for name in METRIC_FIELDS:
        col = np.array([getattr(r, name) for r in rows], dtype=np.float64)
        stats[name] = Aggregate(
            mean=float(col.mean()),
            min=float(col.min()),
            max=float(col.max()),
        )
    return MethodSummary(method=method, n=n, t=t, stats=stats)
