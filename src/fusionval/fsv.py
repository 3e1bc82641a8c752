"""Fusion sampling validation.

One run repeats the subsample-then-cross-validate trial T times on the
same dataset and compounds the T mean fold losses into a single measure
L* = alpha * (1/T) * sum_t L_t. Averaging over T iterations divides the
sampling variance by T; the alpha factor (0.95 by default) shrinks the
headline number conservatively. Both the compounded measure and the raw
iteration mean are exposed, since alpha < 1 trades a small downward bias
for that conservatism.

Both :func:`fsv_run` and :func:`sampled_kfold_trial` run on the pass
kernel of :mod:`fusionval.kfold`, whose docstring describes its draw,
fold-moment and statistics steps and its stream triple. Each iteration
is one pass: it draws a partition fraction f, a subsample of
m = round(f*n) points and a fold order, and gives its fold losses, its
subsample's mean and ddof=1 variance, and its holdout loss.

A run keeps its alpha-scaled metrics as one read-only ``(T x 6)`` table,
:attr:`FsvResult.metrics`; its ``TrialMetrics`` rows are built only when
``iteration_metrics`` is read, so a caller that holds many results holds
no per-row objects. A result stores only the raw iteration losses, that
table and alpha; the other run parameters, k among them, stay with the
caller's :class:`FsvConfig`.

Compounding has two meanings in this package, both alpha times a mean
of raw mean fold losses: :func:`fsv_run` compounds T iterations on one
dataset, and the study harness compounds a cell's trials, one pass on a
fresh dataset each, through the same :func:`compound_measure`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import _MAX_ENTRIES, _alpha, _count, _mean, _passes, _vector
from .kfold import _run_passes
from .metrics import METRIC_FIELDS, TrialMetrics, metric_table
from .rng import RngStream
from .sampling import FRACTION_RANGE, _fraction_window

__all__ = [
    "DEFAULT_ALPHA",
    "FsvConfig",
    "SampledTrial",
    "FsvResult",
    "sampled_kfold_trial",
    "compound_measure",
    "fsv_run",
]

DEFAULT_ALPHA = 0.95


@dataclass(frozen=True)
class FsvConfig:
    """Run parameters.

    Each iteration draws a fresh partition fraction f from
    ``fraction_range`` and subsamples m = round(f*n) points;
    :func:`fsv_run` checks, on its dataset, that every such m leaves
    every fold's training complement at least 2 points and leaves a
    holdout. ``k`` (>= 2) and ``iterations`` (>= 1) must be integral
    (5.0 is taken as 5, 5.5 is refused), k at most
    ``errors._MAX_ENTRIES`` and iterations at most ``_MAX_ENTRIES // k``,
    as a run holds iterations x k fold losses; ``alpha`` in (0, 1] and
    ``fraction_range`` a pair with 0 < low < high <= 1, reals stored as
    floats.
    """

    iterations: int
    alpha: float = DEFAULT_ALPHA
    k: int = 5
    fraction_range: tuple[float, float] = FRACTION_RANGE

    def __post_init__(self) -> None:
        def normalise(name, value):
            object.__setattr__(self, name, value)

        normalise("k", _count("k", self.k, 2, _MAX_ENTRIES))
        normalise("iterations", _passes("iterations", self.iterations, self.k))
        normalise("alpha", _alpha(self.alpha))
        normalise("fraction_range", _fraction_window(self.fraction_range))


@dataclass(frozen=True, eq=False)
class SampledTrial:
    """One subsample-then-cross-validate pass.

    ``fraction`` is the drawn partition fraction and ``m`` the size it
    gave, always under n. ``holdout_mse`` is the fitted model's loss on
    the unsampled complement.
    """

    fraction: float
    m: int
    sample_mean: float
    sample_var: float
    holdout_mse: float
    fold_losses: np.ndarray

    @property
    def mean_fold_loss(self) -> float:
        return _mean(self.fold_losses)


def sampled_kfold_trial(
    data: Dataset,
    k: int,
    stream: RngStream,
    *,
    folds_stream: RngStream,
    fraction_stream: RngStream,
    fraction_range: tuple[float, float] = FRACTION_RANGE,
) -> SampledTrial:
    """Draw one subsample, cross-validate it, score the holdout.

    ``stream`` drives the subsample draw, ``folds_stream`` the fold
    shuffle and ``fraction_stream`` the fraction draw. The sample
    statistics come from the whole subsample (mean, ddof=1 variance);
    the holdout loss scores the subsample-fitted model on the rest of
    the dataset. ``k`` (>= 2) must be integral (5.0 is taken as 5). A
    call whose window can draw a size that cannot train, or can leave no
    holdout, fails before any draw, as :func:`fsv_run` does.
    """
    passes = _run_passes(
        data,
        k,
        1,
        (fraction_stream, stream, folds_stream),
        fraction_range=fraction_range,
        holdout=True,
    )
    return SampledTrial(
        fraction=float(passes.fractions[0]),
        m=int(passes.m[0]),
        sample_mean=float(passes.sample_mean[0]),
        sample_var=float(passes.sample_var[0]),
        holdout_mse=float(passes.holdout_mse[0]),
        fold_losses=passes.fold_losses[0],
    )


def compound_measure(iteration_losses: np.ndarray, alpha: float) -> float:
    """alpha times the mean of the per-iteration losses, which must be
    finite; ``alpha`` must be in (0, 1]."""
    losses = _vector("iteration_losses", iteration_losses)
    return _alpha(alpha) * _mean(losses)


@dataclass(frozen=True, eq=False)
class FsvResult:
    """Outcome of one run.

    ``iteration_losses`` holds the raw (unscaled) mean fold loss of each
    iteration, a vector of T >= 1 entries. ``metrics`` holds the
    alpha-scaled metrics the summary tables report, a ``(T x 6)`` table
    with one row per iteration and columns in ``METRIC_FIELDS`` order.
    Each array is checked by ``errors._vector``'s rule, losses first:
    finite reals, kept as float64 (a float64 array as given, anything
    else as a copy) and made read-only. ``alpha`` must be in (0, 1],
    kept as a float.
    """

    iteration_losses: np.ndarray
    metrics: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        losses = _vector("iteration_losses", self.iteration_losses)
        t, width = len(losses), len(METRIC_FIELDS)
        metrics = _vector("metrics", self.metrics, t, t, columns=width)
        for array in (losses, metrics):
            array.setflags(write=False)
        object.__setattr__(self, "iteration_losses", losses)
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "alpha", _alpha(self.alpha))

    @property
    def compounded_measure(self) -> float:
        """L*: alpha times the mean of ``iteration_losses``."""
        return compound_measure(self.iteration_losses, self.alpha)

    @property
    def iteration_metrics(self) -> tuple[TrialMetrics, ...]:
        """The rows of ``metrics`` by name; built on each read, not kept."""
        return tuple(map(TrialMetrics._make, self.metrics.tolist()))

    @property
    def mean_iteration_loss(self) -> float:
        """Raw iteration mean, without the alpha shrinkage."""
        return _mean(self.iteration_losses)


def fsv_run(data: Dataset, config: FsvConfig, stream: RngStream) -> FsvResult:
    """Run T subsample-and-validate iterations and compound the losses.

    A call whose sizes cannot train, or can leave no holdout, fails
    before any draw.
    """
    passes = _run_passes(
        data,
        config.k,
        config.iterations,
        (stream,) * 3,
        fraction_range=config.fraction_range,
        holdout=True,
    )
    metrics = config.alpha * metric_table(
        passes.sample_mean,
        passes.sample_var,
        passes.holdout_mse,
        data.true_mean,
        data.true_var,
        passes.fold_losses[:, 0],
    )
    return FsvResult(
        iteration_losses=_mean(passes.fold_losses, 1),
        metrics=metrics,
        alpha=config.alpha,
    )
