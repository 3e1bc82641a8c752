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

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, _finite, _mean, _positive, _vector

__all__ = [
    "METRIC_FIELDS",
    "Method",
    "TrialMetrics",
    "Aggregate",
    "trial_metrics",
    "metric_table",
    "summarize",
]


class Method(str, Enum):
    SRS = "SRS"
    KFCV = "KFCV"
    FSV = "FSV"


class TrialMetrics(NamedTuple):
    """One metric row; a row of a :func:`metric_table` by name."""

    mean_est: float
    var_est: float
    mse: float
    bias: float
    roc_me: float
    roc_ve: float


METRIC_FIELDS: tuple[str, ...] = TrialMetrics._fields


class Aggregate(NamedTuple):
    mean: float
    min: float
    max: float


def metric_table(
    mean_est,
    var_est,
    mse,
    true_mean: float,
    true_var: float,
    fold_loss_for_bias,
) -> np.ndarray:
    """Metric rows of many trials at once, against ground truth.

    The per-trial inputs are vectors of one length, a real counting as
    a vector of one; the result has one row per trial and one column
    per name in ``METRIC_FIELDS``. The inputs must be finite,
    ``true_var`` > 0, and each estimate within float max of the value
    it is scored against, so that every distance is a float.
    """
    true_mean = _finite("true_mean", true_mean)
    true_var = _positive("true_var", true_var)

    def column(name, value, *length):
        return _vector(name, value if np.iterable(value) else [value], *length)

    mean_est = column("mean_est", mean_est)
    t = len(mean_est)
    var_est = column("var_est", var_est, t, t)
    mse = column("mse", mse, t, t)
    fold_loss = column("fold_loss_for_bias", fold_loss_for_bias, t, t)
    with np.errstate(over="ignore"):  # an inf distance is refused below
        # bias, roc_me and roc_ve
        distances = np.abs(
            (fold_loss - true_var, mean_est - true_mean, var_est - true_var)
        )
    far = ~np.isfinite(distances).all(1)
    if far.any():
        name = ("fold_loss_for_bias", "mean_est", "var_est")[far.argmax()]
        raise ValidationError(f"{name} must lie within float max of the truth")
    return np.column_stack((mean_est, var_est, mse, *distances))


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
    return TrialMetrics._make(row[0].tolist())


def summarize(table: np.ndarray) -> dict[str, Aggregate]:
    """Mean/min/max of each column of a ``(trials x 6)`` metric table,
    keyed by the names in ``METRIC_FIELDS``."""
    table = _vector("table", table, columns=len(METRIC_FIELDS))
    # Reduce contiguous columns: a column's mean is then summed pairwise,
    # where table.mean(axis=0) would sum the rows in sequence and round
    # differently in the last bit.
    columns = np.ascontiguousarray(table.T)
    return {
        name: Aggregate(mean, lo, hi)
        for name, mean, lo, hi in zip(
            METRIC_FIELDS,
            _mean(columns, 1).tolist(),
            columns.min(axis=1).tolist(),
            columns.max(axis=1).tolist(),
        )
    }
