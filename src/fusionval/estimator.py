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

from .errors import _vector

__all__ = ["ModelParams", "fit", "loss"]


@dataclass(frozen=True)
class ModelParams:
    fitted_mean: float
    fitted_var: float


def fit(train: np.ndarray) -> ModelParams:
    """Fit mean and unbiased (ddof=1) variance on the training split."""
    train = _vector("train", train, 2)
    return ModelParams(
        fitted_mean=float(train.mean()),
        fitted_var=float(train.var(ddof=1)),
    )


def loss(model: ModelParams, validation: np.ndarray) -> float:
    """Mean squared prediction error of the fitted mean on a split.

    For a training split of size n drawn from a variance-sigma2
    population, the expected value is sigma2 * (1 + 1/n).
    """
    validation = _vector("validation", validation)
    dev = validation - model.fitted_mean
    return float(np.mean(dev * dev))
