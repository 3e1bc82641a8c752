"""The model under validation.

A deliberately simple estimator: fit the sample mean and unbiased sample
variance on a training split, and score a validation split by mean
squared prediction error around the fitted mean. Its expected loss has a
closed form, which is what makes the validation strategies comparable
against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _finite, _mean, _summable, _vector

__all__ = ["ModelParams", "fit", "loss"]


@dataclass(frozen=True)
class ModelParams:
    fitted_mean: float
    fitted_var: float


def fit(train: np.ndarray) -> ModelParams:
    """Fit mean and unbiased (ddof=1) variance on the training split,
    whose span must keep the sums finite (``errors._summable``)."""
    train = _vector("train", train, 2)
    _summable("train", train, "the fit's sums")
    # a mean rounded past the values' range could square past float max
    mean = float(np.clip(_mean(train), train.min(), train.max()))
    dev = train - mean
    return ModelParams(
        fitted_mean=mean,
        fitted_var=float(np.sum(dev * dev)) / (len(train) - 1),
    )


def loss(model: ModelParams, validation: np.ndarray) -> float:
    """Mean squared prediction error of the fitted mean, which must be
    finite, on a split whose span, the fitted mean included, must keep
    the squares finite (``errors._summable``).

    For a training split of size n drawn from a variance-sigma2
    population, the expected value is sigma2 * (1 + 1/n).
    """
    validation = _vector("validation", validation)
    centre = _finite("fitted_mean", model.fitted_mean)
    _summable(
        "validation", validation, "the loss's squares", fitted_mean=centre
    )
    dev = validation - centre
    return _mean(dev * dev)
