"""K-fold cross-validation with per-fold loss weighting.

Folds are disjoint, exhaustive, and near-equal (sizes differ by at most
one). The plain estimate averages the k fold losses; the weighted
variant scales fold i by lambda_i / k, and keeping the weights summing
to k preserves unbiasedness while letting the weights shift variance
between folds.

One kernel serves every subsample-and-cross-validate pass: a single
pass through :func:`kfold_losses`, the P = 1 pass of
``fsv.sampled_kfold_trial``, the R repetitions of :func:`repeated_kfcv`
and the T iterations of ``fsv.fsv_run``. It works in two steps.

*Draw step, once per pass,* after one check per call of every size the
call can draw (:func:`_subsample_range`). Draw as a loop over the public
API would, on the caller's streams and in the same order: the partition
fraction (``sampling.draw_partition_fraction``'s one ``uniform`` call),
the subset ``sampling.srs_sample`` draws, with its checks, and
:func:`make_folds`' fold order. The subset comes back sorted (by
``sampling._draw_subset``), is taken from the dataset and is shuffled in
place: numpy's ``permutation(m)`` shuffles ``arange(m)`` with swaps that
depend on m alone, so the subsample lands in ``make_folds``' order, with
no index array to check or gather by. Shifted by a pilot value, the
dataset's first element, each fold reduces to its count n_i, sum and
centred sum of squares M2_i with ``np.add.reduceat``. The shift keeps
sums of the order of the spread rather than of the mean: with mu = 1e9
and sigma = 1e-3 an unshifted sum would lose the spread to rounding.
Fold sizes follow from ``divmod(m, k)``, as :func:`make_folds` lays them
out. Each pass fills one row of ``(passes x k)`` arrays.

*Statistics step, once per call.* Everything else is algebra on those
arrays, over all passes at once. The pairwise update of Chan, Golub and
LeVeque (1979) combines two groups a and b as

    M2_ab = M2_a + M2_b + (n_a n_b / (n_a + n_b)) (mean_a - mean_b)^2,

so each subsample's mean and M2, its ddof=1 variance, follow from its
folds, and each training complement's M2 follows by running the update
in reverse: subtract the fold's own M2 and the cross term between the
fold and its complement from the subsample's. The loss of fold i around
the complement's mean is then M2_i / n_i + (mean_i - mean_complement)^2.
The holdout, the dataset's points outside the subsample, is handled the
same way one level up: its count, mean and M2 are the dataset's totals
(computed once per call, with the same pilot) minus the subsample's, by
the update in reverse, and its squared error around the subsample mean
is M2_h / n_h + (mean_h - mean)^2. No pass gathers its holdout. That
subtraction is exact algebra but rounds to ulps of the dataset's M2, so
a holdout of a handful of points keeps fewer digits than a direct sum.

The kernels use ufunc reductions only, never ``@`` or ``np.dot``: with a
threaded BLAS a dot product of a few thousand elements is spread over
every core, which costs CPU time on a process that runs alone and
contends with the other workers of a pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import ValidationError
from .rng import RngStream
from .sampling import FRACTION_RANGE, _draw_subset, _fraction_window, _number

__all__ = [
    "FoldPlan",
    "LambdaWeights",
    "KfcvEstimate",
    "make_folds",
    "kfold_losses",
    "empirical_kfold_loss",
    "weighted_kfold_loss",
    "repeated_kfcv",
]

_SUM_TOL = 1e-9


def _fold_sizes(total: int, k: int) -> list[int]:
    """Sizes of k near-equal folds of ``total`` points; earlier folds
    take the remainder, as ``np.array_split`` lays them out."""
    base, extra = divmod(total, k)
    return [base + 1] * extra + [base] * (k - extra)


def _check_sizes(sizes: list[int], k: int) -> None:
    """k folds, none empty, sizes differing by at most one."""
    if len(sizes) != k:
        raise ValidationError(f"expected {k} folds, got {len(sizes)}")
    if min(sizes) < 1:
        raise ValidationError("every fold must be non-empty")
    if max(sizes) - min(sizes) > 1:
        raise ValidationError(
            f"fold sizes may differ by at most 1, got {sizes}"
        )


def _check_order(order: np.ndarray) -> None:
    """The folds laid out one after another in ``order`` are together
    exactly a permutation of range(len(order)). O(m)."""
    if order.dtype.kind not in "iu":
        raise ValidationError(
            f"fold indices must be integers, got dtype {order.dtype}"
        )
    total = len(order)
    if order.min() != 0 or order.max() != total - 1:
        raise ValidationError("folds must exactly cover range(total)")
    # total indices, all in range(total): one left unmarked means
    # another repeats. Marking booleans is cheaper than np.bincount,
    # whose int64 counts take eight times the memory.
    seen = np.zeros(total, dtype=bool)
    seen[order] = True
    if not seen.all():
        raise ValidationError("folds must be disjoint")


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """A partition of range(total) into k disjoint folds."""

    folds: tuple[np.ndarray, ...]
    k: int
    # every index, fold by fold: the folds concatenated
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValidationError(f"k must be >= 2, got {self.k}")
        _check_sizes([len(f) for f in self.folds], self.k)
        merged = np.concatenate(self.folds)
        _check_order(merged)
        for f in self.folds:
            f.setflags(write=False)
        merged.setflags(write=False)
        object.__setattr__(self, "_order", merged)

    @classmethod
    def from_permutation(cls, order: np.ndarray, k: int) -> "FoldPlan":
        """Split a permutation of range(len(order)) into k near-equal
        folds, earlier folds taking the remainder.

        Runs the constructor's checks; the folds are views of ``order``,
        which becomes read-only.
        """
        if k < 2:
            raise ValidationError(f"k must be >= 2, got {k}")
        order = np.asarray(order)
        if order.ndim != 1:
            raise ValidationError(
                f"order must be a vector, got shape {order.shape}"
            )
        order.setflags(write=False)
        return cls(folds=tuple(np.array_split(order, k)), k=k)

    @property
    def total(self) -> int:
        return len(self._order)


def make_folds(sample_size: int, k: int, stream: RngStream) -> FoldPlan:
    """Shuffle range(sample_size) and split it into k near-equal folds.

    Earlier folds take the remainder, so sizes are ceil then floor.
    """
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    if sample_size < k:
        raise ValidationError(
            f"need sample_size >= k, got sample_size={sample_size}, k={k}"
        )
    order = stream.generator.permutation(sample_size)
    if order.shape != (sample_size,):
        raise ValidationError(
            f"fold permutation must be a length-{sample_size} vector, "
            f"got shape {order.shape}"
        )
    return FoldPlan.from_permutation(order, k)


def _trainable(m: int, k: int) -> bool:
    """Whether m points split into k folds each leaving at least 2
    training points: the largest fold holds ceil(m / k)."""
    return m >= k and m - -(-m // k) >= 2


def _subsample_range(
    n: int,
    k: int,
    sample_size: int | None,
    fraction_range: tuple,
    require_holdout: bool = False,
) -> tuple[int, int]:
    """The least and greatest subsample size m a call on n points can
    draw: the pinned ``sample_size`` twice, or round(low*n), round(high*n).
    They bound every drawn m, as round is monotone, and m - ceil(m/k)
    never falls as m grows. Raises unless k >= 2 and every such m is
    :func:`_trainable` and at most n, and, with ``require_holdout``,
    under n, so that it leaves a holdout; a size error names the field."""
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    if sample_size is None:
        low, high = fraction_range
        m_lo, m_hi = int(round(low * n)), int(round(high * n))
        what = f"fraction_range {fraction_range} on n={n} points"
    else:
        m_lo = m_hi = sample_size
        what = f"sample_size {sample_size}"
    if not _trainable(m_lo, k):
        raise ValidationError(
            f"{what} is too small to train k={k} folds: its smallest "
            f"subsample, {m_lo} points, leaves some fold a training "
            "complement of fewer than 2 points"
        )
    if m_hi > n:
        raise ValidationError(f"{what} exceeds n={n}")
    if require_holdout and m_hi == n:
        raise ValidationError(
            f"{what} leaves no holdout: its largest subsample is all "
            f"n={n} points"
        )
    return m_lo, m_hi


def _fold_moments(
    y: np.ndarray, sizes: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-fold sum and centred sum of squares of ``y``, whose folds lie
    one after another with the given sizes. Overwrites nothing in ``y``."""
    starts = [0, *accumulate(sizes[:-1])]
    fold_sum = np.add.reduceat(y, starts)
    # in-place steps: each fresh array of m floats costs page faults
    dev = np.repeat(fold_sum / sizes, sizes)
    np.subtract(y, dev, out=dev)
    dev *= dev
    return fold_sum, np.add.reduceat(dev, starts)


class _Passes(NamedTuple):
    """Statistics of P passes, one row per pass; see the module docstring.

    Means are in data units (pilot added back). ``holdout_mse`` is NaN
    where the subsample is the whole dataset, and None when not asked for.
    """

    m: np.ndarray  # (P,) subsample sizes
    fold_losses: np.ndarray  # (P, k)
    train_means: np.ndarray  # (P, k)
    train_vars: np.ndarray  # (P, k), ddof=1
    sample_mean: np.ndarray  # (P,)
    sample_var: np.ndarray  # (P,), ddof=1
    holdout_mse: np.ndarray | None  # (P,)
    fractions: np.ndarray | None = None  # (P,), NaN where m was pinned


def _combine(
    counts: np.ndarray,
    sums: np.ndarray,
    m2s: np.ndarray,
    pilot: float,
    data: Dataset | None = None,
) -> _Passes:
    """The statistics step: Chan-Golub-LeVeque algebra on the
    ``(passes x k)`` fold counts, shifted sums and M2s. With ``data``,
    also the holdout's squared error from the dataset's totals."""
    total = counts.sum(axis=1)
    train = total[:, None] - counts
    total_sum = sums.sum(axis=1)
    mean = total_sum / total
    fold_mean = sums / counts
    spread = fold_mean - mean[:, None]
    total_m2 = m2s.sum(axis=1) + (counts * spread * spread).sum(axis=1)
    train_mean = (total_sum[:, None] - sums) / train
    gap = fold_mean - train_mean
    cross = counts * train / total[:, None] * gap * gap
    train_m2 = total_m2[:, None] - m2s - cross
    holdout = None
    if data is not None:
        n = data.n
        y = data.values - pilot
        data_sum = y.sum()
        y -= data_sum / n
        y *= y
        data_m2 = y.sum()
        rest = n - total
        with np.errstate(divide="ignore", invalid="ignore"):
            rest_mean = (data_sum - total_sum) / rest
            rest_gap = rest_mean - mean
            rest_cross = total * rest / n * rest_gap * rest_gap
            rest_m2 = data_m2 - total_m2 - rest_cross
            holdout = np.maximum(rest_m2, 0.0) / rest + rest_gap * rest_gap
        holdout[rest == 0] = np.nan
    return _Passes(
        m=total.astype(np.int64),
        fold_losses=m2s / counts + gap * gap,
        train_means=train_mean + pilot,
        train_vars=np.maximum(train_m2, 0.0) / (train - 1),
        sample_mean=mean + pilot,
        sample_var=total_m2 / (total - 1),
        holdout_mse=holdout,
    )


def _run_passes(
    data: Dataset,
    k: int,
    passes: int,
    stream: RngStream,
    *,
    folds_stream: RngStream | None = None,
    fraction_stream: RngStream | None = None,
    sample_size: int | None = None,
    fraction_range: tuple[float, float] = FRACTION_RANGE,
    holdout: bool = False,
    require_holdout: bool = False,
) -> _Passes:
    """Draw and validate ``passes`` subsamples of ``data``; see the
    module docstring.

    Each pass draws its fraction from ``fraction_stream`` (unless
    ``sample_size`` pins m), its subsample from ``stream`` and its fold
    order from ``folds_stream``, by a shuffle of the subsample; the two
    optional streams fall back to ``stream``. With ``holdout`` the result
    carries each subsample's squared error on the rest of the dataset.
    Every size the call can draw is checked before the first draw, by
    :func:`_subsample_range` with ``require_holdout``.
    """
    if sample_size is None:
        fraction_range = _fraction_window(fraction_range)
        low, high = fraction_range
    _subsample_range(data.n, k, sample_size, fraction_range, require_holdout)
    values = data.values
    pilot = values[0]
    fractions = np.full(passes, np.nan)
    counts = np.empty((passes, k))
    sums = np.empty((passes, k))
    m2s = np.empty((passes, k))
    for p in range(passes):
        if sample_size is None:
            # draw_partition_fraction's draw, less its window check
            f = float((fraction_stream or stream).generator.uniform(low, high))
            fractions[p] = f
            m = int(round(f * data.n))
        else:
            m = sample_size
        y = values.take(_draw_subset(data.n, m, stream))
        y -= pilot
        # a fresh contiguous float64 vector: shuffle's 8-byte fast path
        (folds_stream or stream).generator.shuffle(y)
        sizes = _fold_sizes(m, k)
        counts[p] = sizes
        sums[p], m2s[p] = _fold_moments(y, sizes)
    stats = _combine(counts, sums, m2s, pilot, data if holdout else None)
    return stats._replace(fractions=fractions)


def _fold_stats(
    sample: np.ndarray, plan: FoldPlan
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-fold loss, training mean and ddof=1 training variance.

    Fold i's model is fit on its training complement, the other folds,
    and scored on the fold, as ``fit`` and ``loss`` would, by the
    kernel's statistics step on a single pass.
    ``sample`` must be a float64 vector of length ``plan.total``.
    """
    # a caller-built plan is the one way to a complement under 2 points
    if not _trainable(plan.total, plan.k):
        raise ValidationError("a training complement has under 2 points")
    y = sample[plan._order]
    pilot = y[0]
    y -= pilot
    sizes = [len(f) for f in plan.folds]
    fold_sum, fold_m2 = _fold_moments(y, sizes)
    stats = _combine(
        np.array([sizes], dtype=np.float64),
        fold_sum[None, :],
        fold_m2[None, :],
        pilot,
    )
    return stats.fold_losses[0], stats.train_means[0], stats.train_vars[0]


def kfold_losses(sample: np.ndarray, plan: FoldPlan) -> np.ndarray:
    """Loss of the model fit on each fold's complement, scored on the fold.

    Requires every training complement to hold at least 2 points.
    """
    sample = np.asarray(sample, dtype=np.float64)
    if sample.ndim != 1 or len(sample) != plan.total:
        raise ValidationError(
            f"sample must be a length-{plan.total} vector, "
            f"got shape {sample.shape}"
        )
    return _fold_stats(sample, plan)[0]


def empirical_kfold_loss(losses: np.ndarray) -> float:
    """Unweighted mean of the per-fold losses."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or len(losses) < 1:
        raise ValidationError("losses must be a non-empty vector")
    return float(losses.mean())


@dataclass(frozen=True, eq=False)
class LambdaWeights:
    """Per-fold loss weights lambda_1..lambda_k.

    The weights must sum to k, the condition under which the weighted
    loss keeps the plain estimate's expectation. Weights must be finite
    and non-negative; zero weights are allowed and simply drop a fold
    from the average.
    """

    lambdas: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.lambdas, dtype=np.float64)
        object.__setattr__(self, "lambdas", arr)
        if arr.ndim != 1 or len(arr) < 1:
            raise ValidationError("lambdas must be a non-empty vector")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise ValidationError(
                "lambdas must be finite and non-negative"
            )
        if abs(arr.sum() - len(arr)) > _SUM_TOL:
            raise ValidationError(
                f"lambdas must sum to k={len(arr)} for unbiased weights, "
                f"got {float(arr.sum())!r}"
            )
        arr.setflags(write=False)

    @classmethod
    def uniform(cls, k: int) -> "LambdaWeights":
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        return cls(lambdas=np.ones(k))

    @property
    def k(self) -> int:
        return len(self.lambdas)


def weighted_kfold_loss(losses: np.ndarray, weights: LambdaWeights) -> float:
    """(1/k) * sum_i lambda_i * loss_i.

    Computed as the mean of the elementwise products, so uniform weights
    reproduce :func:`empirical_kfold_loss` bit for bit.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or len(losses) != weights.k:
        raise ValidationError(
            f"losses must be a length-{weights.k} vector, "
            f"got shape {losses.shape}"
        )
    return float((weights.lambdas * losses).mean())


@dataclass(frozen=True)
class KfcvEstimate:
    """Averages over repetitions of a full sample-and-validate pass."""

    mean_estimate: float
    var_estimate: float
    loss: float
    repetitions: int
    k: int


def repeated_kfcv(
    data: Dataset,
    k: int,
    repetitions: int,
    weights: LambdaWeights,
    stream: RngStream,
    fraction_range: tuple[float, float] = FRACTION_RANGE,
) -> KfcvEstimate:
    """Repeat (draw fraction, subsample, split, validate) and average.

    Each repetition draws a fresh partition fraction f, subsamples
    round(f*n) points, builds a fold plan, and records the weighted
    k-fold loss plus the per-fold training-complement mean and variance.
    The returned estimates average over all repetitions and folds; the
    repetitions run as one batch of the pass kernel. ``k`` and
    ``repetitions`` must be integral (5.0 is taken as 5). A call whose
    window can draw a size that cannot train fails before any draw.
    """
    k = _number("k", k, True)
    repetitions = _number("repetitions", repetitions, True)
    if repetitions < 1:
        raise ValidationError(
            f"repetitions must be >= 1, got {repetitions}"
        )
    if weights.k != k:
        raise ValidationError(
            f"weights have k={weights.k}, expected {k}"
        )
    passes = _run_passes(
        data, k, repetitions, stream, fraction_range=fraction_range
    )
    # the mean over repetitions of weighted_kfold_loss, in one reduce
    return KfcvEstimate(
        mean_estimate=float(passes.train_means.mean()),
        var_estimate=float(passes.train_vars.mean()),
        loss=float((weights.lambdas * passes.fold_losses).mean()),
        repetitions=repetitions,
        k=k,
    )
