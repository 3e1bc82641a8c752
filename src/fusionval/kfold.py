"""K-fold cross-validation with per-fold loss weighting.

Folds are disjoint, exhaustive, and near-equal (sizes differ by at most
one). A :class:`FoldPlan` stores one checked permutation ``order`` and
k; its folds are views of the contiguous runs of ``order`` that
:func:`_fold_sizes` lays out, so the layout is stated once and balance
holds by construction. The plain estimate averages the k fold losses;
the weighted variant scales fold i by lambda_i / k, and keeping the
weights summing to k preserves unbiasedness while letting the weights
shift variance between folds.

One kernel serves every subsample-and-cross-validate pass: a single
pass through :func:`kfold_losses`, the P = 1 pass of
``fsv.sampled_kfold_trial``, the R repetitions of :func:`repeated_kfcv`
and the T iterations of ``fsv.fsv_run``. It works in three steps.

*Draw step, once per pass,* after one check per call of every size the
call can draw (:func:`_subsample_range`). A call takes one
``(fraction, subset, folds)`` triple of streams; :func:`repeated_kfcv`
and ``fsv.fsv_run`` pass one stream three times, and
``fsv.sampled_kfold_trial`` takes three named streams. Draw as a loop
over the public API would, on those streams and in the same order: the
partition fraction (``sampling.draw_partition_fraction``'s one
``uniform`` call), the subset ``sampling.srs_sample`` draws, with its
checks, and :func:`make_folds`' fold order. The subset comes back sorted (by
``sampling._draw_subset``), is gathered from the dataset into the next
segment of one per-call buffer and is shuffled there in place: numpy's
``permutation(m)`` shuffles ``arange(m)`` with swaps that depend on m
alone, so the subsample lands in ``make_folds``' order, with no index
array to check or gather by. A pass does nothing else.

*Fold moments, once per batch.* The buffer holds ``max(m_hi,
_BATCH_FLOATS)`` floats, m_hi being the largest size the call can draw,
so that any one pass fits. When the next subsample would not fit, and
after the last pass, one :func:`_fold_moments` call scores every pass in
the buffer. Shifted by a pilot value, the dataset's first element, each
fold reduces to its count n_i, sum and centred sum of squares M2_i with
``np.add.reduceat``, written straight into its pass's row of
``(passes x k)`` arrays. Each fold is reduced on its own, so a batch
gives the bits that scoring its passes one by one gives. The shift keeps
sums of the order of the spread rather than of the mean: with mu = 1e9
and sigma = 1e-3 an unshifted sum would lose the spread to rounding.
Fold sizes follow from :func:`_fold_sizes`, as in every
:class:`FoldPlan`. The buffer is bounded because a fresh buffer for all
of a call's points pages in new memory on every call.

*Statistics step, once per call.* Everything else is algebra on those
arrays, over all passes at once. The pairwise update of Chan, Golub and
LeVeque (1979) combines two groups a and b as

    M2_ab = M2_a + M2_b + (n_a n_b / (n_a + n_b)) (mean_a - mean_b)^2,

so each subsample's mean and M2, its ddof=1 variance, follow from its
folds. One rule, :func:`_complement`, runs the update in reverse: given
a part and the whole it was taken from, the rest's count is the
difference, its mean the difference of sums over that count, and its
M2 the whole's less the part's and less the cross term, clipped at 0.
It serves two levels. Each fold against its subsample gives the fold's
training complement, and the fold's loss around the complement's mean
is M2_i / n_i + (mean_i - mean_complement)^2. The subsample against the
dataset gives the holdout, the dataset's points outside the subsample,
from the dataset's totals (computed once per call, with the same
pilot), and its squared error around the subsample mean is
M2_h / n_h + (mean_h - mean)^2. No rest is empty: a call that scores
holdouts draws every m under n (:func:`_subsample_range`), and every
training complement keeps at least 2 points (:func:`_trainable`). No
pass gathers its holdout. The subtraction is exact algebra but rounds
to the precision of the whole's M2, so a holdout of a handful of
points keeps fewer digits than a direct sum.

*Error bound.* Rounding leaves each statistic of a pass (the sample
mean and variance, the holdout loss, and each fold's training mean,
training variance and loss) within a derived bound of its exact value
on the stored doubles. ``selftest._exact_scores`` states the bounds as
code and scores passes in exact rational arithmetic; the self-test and
``tests/test_pass_kernel.py`` hold the kernel to them.

The kernels use ufunc reductions only, never ``@`` or ``np.dot``: with a
threaded BLAS a dot product of a few thousand elements is spread over
every core, which costs CPU time on a process that runs alone and
contends with the other workers of a pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import (
    _MAX_ENTRIES, ValidationError, _count, _mean, _passes, _summable, _vector,
)
from .rng import RngStream
from .sampling import (
    FRACTION_RANGE, _draw_subset, _fraction_window, _index_mask
)

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
# floats a pass-kernel call gathers before it scores them, at the least
_BATCH_FLOATS = 8192


def _fold_sizes(total: int, k: int) -> list[int]:
    """Sizes of k near-equal folds of ``total`` points; earlier folds
    take the remainder, as ``np.array_split`` lays them out."""
    base, extra = divmod(total, k)
    return [base + 1] * extra + [base] * (k - extra)


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """A partition of range(total) into k near-equal folds.

    ``order`` is a permutation of range(total), ``total`` its length; it
    becomes read-only. Fold i is the i-th of k contiguous runs of
    ``order``, earlier runs taking the remainder (sizes differ by at
    most one), as ``np.array_split(order, k)`` cuts it. ``k`` must be
    integral (2.0 is taken as 2), at least 2 and at most ``total``.
    """

    order: np.ndarray
    k: int

    def __post_init__(self) -> None:
        order = _vector("order", self.order, integral=True)
        object.__setattr__(self, "k", _count("k", self.k, 2, len(order)))
        # n distinct indices in range(n): a permutation
        _index_mask(order, len(order), "order")
        order.setflags(write=False)
        object.__setattr__(self, "order", order)

    @property
    def total(self) -> int:
        return len(self.order)

    @property
    def folds(self) -> tuple[np.ndarray, ...]:
        """The k folds, as read-only views of ``order``."""
        ends = list(accumulate(_fold_sizes(self.total, self.k)))
        return tuple(
            self.order[start:end] for start, end in zip([0, *ends], ends)
        )


def make_folds(sample_size: int, k: int, stream: RngStream) -> FoldPlan:
    """Shuffle range(sample_size) and split it into k near-equal folds.

    Earlier folds take the remainder, so sizes are ceil then floor.
    ``k`` and ``sample_size`` must be integral (5.0 is taken as 5), with
    2 <= k <= sample_size; bad sizes are refused before the draw.
    """
    k = _count("k", k, 2)
    sample_size = _count("sample_size", sample_size, k, _MAX_ENTRIES)
    order = _vector(
        "fold permutation", stream.generator.permutation(sample_size),
        sample_size, sample_size, integral=True,
    )
    return FoldPlan(order, k)


def _trainable(m: int, k: int) -> bool:
    """Whether m points split into k folds each leaving at least 2
    training points: the largest fold holds ceil(m / k)."""
    return m >= k and m - -(-m // k) >= 2


def _subsample_range(
    n: int,
    k: int,
    fraction_range: tuple,
    require_holdout: bool = False,
) -> tuple[int, int]:
    """The least and greatest subsample size m a call on n points can
    draw from the window (low, high): round(low*n), round(high*n).
    They bound every drawn m, as round is monotone, and m - ceil(m/k)
    never falls as m grows; high <= 1 keeps them at most n. ``k`` must
    already be a count >= 2, as :func:`_run_passes` makes it. Raises
    unless every such m is
    :func:`_trainable` and, with ``require_holdout``, under n, so that
    it leaves a holdout; a size error names the field."""
    low, high = fraction_range
    m_lo, m_hi = int(round(low * n)), int(round(high * n))
    if not _trainable(m_lo, k):
        fault = (
            f"is too small to train k={k} folds: its smallest subsample, "
            f"{m_lo} points, leaves some fold a training complement of "
            "fewer than 2 points"
        )
    elif require_holdout and m_hi == n:
        fault = f"leaves no holdout: its largest subsample is all n={n} points"
    else:
        return m_lo, m_hi
    raise ValidationError(
        f"fraction_range {fraction_range} on n={n} points {fault}"
    )


def _fold_moments(
    y: np.ndarray,
    sizes: list[int],
    pilot: float,
    sums: np.ndarray,
    m2s: np.ndarray,
) -> None:
    """Shift ``y`` by ``pilot`` in place, then write the sum and centred
    sum of squares of each of its folds to ``sums`` and ``m2s``. The
    folds lie one after another with the given sizes; they may be the
    folds of several passes, one pass after another."""
    y -= pilot
    starts = [0, *accumulate(sizes[:-1])]
    np.add.reduceat(y, starts, out=sums)
    # in-place steps: each fresh array of m floats costs page faults
    dev = np.repeat(sums / sizes, sizes)
    np.subtract(y, dev, out=dev)
    dev *= dev
    np.add.reduceat(dev, starts, out=m2s)


class _Passes(NamedTuple):
    """Statistics of P passes, one row per pass; see the module docstring.

    Means are in data units (pilot added back). ``holdout_mse`` is None
    when not asked for.
    """

    m: np.ndarray  # (P,) subsample sizes
    fold_losses: np.ndarray  # (P, k)
    train_means: np.ndarray  # (P, k)
    train_vars: np.ndarray  # (P, k), ddof=1
    sample_mean: np.ndarray  # (P,)
    sample_var: np.ndarray  # (P,), ddof=1
    holdout_mse: np.ndarray | None  # (P,)
    fractions: np.ndarray | None = None  # (P,) drawn partition fractions


def _complement(part_n, part_sum, part_m2, whole_n, whole_sum, whole_m2):
    """What is left of a group when a part of it is taken out, by the
    pairwise update in reverse: the rest's count, its mean, its M2
    clipped at 0, and the squared gap between the part's mean and the
    rest's. The rest must hold at least one point."""
    rest_n = whole_n - part_n
    rest_mean = (whole_sum - part_sum) / rest_n
    gap = part_sum / part_n - rest_mean
    cross = part_n * rest_n / whole_n * gap * gap
    rest_m2 = np.maximum(whole_m2 - part_m2 - cross, 0.0)
    return rest_n, rest_mean, rest_m2, gap * gap


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
    total_sum = sums.sum(axis=1)
    mean = total_sum / total
    spread = sums / counts - mean[:, None]
    total_m2 = m2s.sum(axis=1) + (counts * spread * spread).sum(axis=1)
    whole = (total[:, None], total_sum[:, None], total_m2[:, None])
    train, train_mean, train_m2, gap2 = _complement(counts, sums, m2s, *whole)
    holdout = None
    if data is not None:
        # sum, not _fold_moments: np.add.reduceat does not sum
        # pairwise, so its totals would differ in the last bits
        y = data.values - pilot
        data_sum = y.sum()
        y -= data_sum / data.n
        y *= y
        rest, _, rest_m2, rest_gap2 = _complement(
            total, total_sum, total_m2, data.n, data_sum, y.sum()
        )
        holdout = rest_m2 / rest + rest_gap2
    return _Passes(
        m=total.astype(np.int64),
        fold_losses=m2s / counts + gap2,
        train_means=train_mean + pilot,
        train_vars=train_m2 / (train - 1),
        sample_mean=mean + pilot,
        sample_var=total_m2 / (total - 1),
        holdout_mse=holdout,
    )


def _run_passes(
    data: Dataset,
    k: int,
    passes: int,
    streams: tuple[RngStream, RngStream, RngStream],
    *,
    fraction_range: tuple[float, float] = FRACTION_RANGE,
    holdout: bool = False,
) -> _Passes:
    """Draw and validate ``passes`` subsamples of ``data``; see the
    module docstring.

    ``streams`` is the (fraction, subset, folds) triple: each pass
    draws its fraction f from the first and so its size m = round(f*n),
    its subsample from the second and its fold order, by a shuffle of
    the subsample, from the third. With ``holdout`` the result
    carries each subsample's squared error on the rest of the dataset.
    ``k`` (>= 2, integral) and every size the call can draw are checked
    before the first draw, the sizes by :func:`_subsample_range`; with
    ``holdout``, every such size must leave one.
    """
    k = _count("k", k, 2)
    fraction_range = _fraction_window(fraction_range)
    low, high = fraction_range
    n = data.n
    _, m_hi = _subsample_range(n, k, fraction_range, holdout)
    values = data.values
    pilot = values[0]
    fraction_draws, draws, fold_draws = (s.generator for s in streams)
    fractions = np.empty(passes)
    # per fold of every pass, pass after pass
    sums = np.empty(passes * k)
    m2s = np.empty(passes * k)
    # every pass's fold sizes; those from ``scored`` on lie in the buffer
    sizes: list[int] = []
    buffer = np.empty(max(m_hi, _BATCH_FLOATS))
    used = scored = 0

    def score() -> None:
        nonlocal used, scored
        rows = slice(scored, len(sizes))
        _fold_moments(
            buffer[:used], sizes[rows], pilot, sums[rows], m2s[rows]
        )
        used, scored = 0, len(sizes)

    for p in range(passes):
        # draw_partition_fraction's draw, less its window check
        f = float(fraction_draws.uniform(low, high))
        fractions[p] = f
        m = int(round(f * n))
        if used + m > len(buffer):
            score()
        segment = buffer[used:used + m]
        # "clip" gathers unbuffered; _draw_subset put every index in [0, n)
        values.take(_draw_subset(n, m, draws), out=segment, mode="clip")
        # a contiguous float64 vector: shuffle's 8-byte fast path
        fold_draws.shuffle(segment)
        sizes += _fold_sizes(m, k)
        used += m
    score()
    stats = _combine(
        np.array(sizes, dtype=np.float64).reshape(passes, k),
        sums.reshape(passes, k),
        m2s.reshape(passes, k),
        pilot,
        data if holdout else None,
    )
    return stats._replace(fractions=fractions)


def kfold_losses(sample: np.ndarray, plan: FoldPlan) -> np.ndarray:
    """Loss of the model fit on each fold's complement, scored on the fold.

    Computed as ``fit`` and ``loss`` would, by the kernel's statistics
    step on a single pass. Requires every training complement to hold at
    least 2 points, and a sample the kernel can sum, as a ``Dataset``'s
    values must be (``errors._summable``).
    """
    sample = _vector("sample", sample, plan.total, plan.total)
    _summable("sample", sample)
    # a caller-built plan is the one way to a complement under 2 points
    if not _trainable(plan.total, plan.k):
        raise ValidationError("a training complement has under 2 points")
    y = sample[plan.order]
    pilot = y[0]
    sizes = _fold_sizes(plan.total, plan.k)
    sums, m2s = np.empty((2, 1, plan.k))
    _fold_moments(y, sizes, pilot, sums[0], m2s[0])
    counts = np.array([sizes], dtype=np.float64)
    return _combine(counts, sums, m2s, pilot).fold_losses[0]


def empirical_kfold_loss(losses: np.ndarray) -> float:
    """Unweighted mean of the per-fold losses, by :func:`_mean`."""
    return _mean(_vector("losses", losses))


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
        arr = _vector("lambdas", self.lambdas)
        object.__setattr__(self, "lambdas", arr)
        if (arr < 0).any():
            raise ValidationError("lambdas must be non-negative")
        total = _mean(arr) * len(arr)  # inf, not a warning, past float max
        if abs(total - len(arr)) > _SUM_TOL:
            raise ValidationError(
                f"lambdas must sum to k={len(arr)} for unbiased weights, "
                f"got {total!r}"
            )
        arr.setflags(write=False)

    @classmethod
    def uniform(cls, k: int) -> "LambdaWeights":
        return cls(lambdas=np.ones(_count("k", k, 1, _MAX_ENTRIES)))

    @property
    def k(self) -> int:
        return len(self.lambdas)


def weighted_kfold_loss(losses: np.ndarray, weights: LambdaWeights) -> float:
    """(1/k) * sum_i lambda_i * loss_i.

    Computed by :func:`_mean` with the weights, so uniform weights
    reproduce :func:`empirical_kfold_loss` bit for bit.
    """
    losses = _vector("losses", losses, weights.k, weights.k)
    return _mean(losses, weights=weights.lambdas)


@dataclass(frozen=True)
class KfcvEstimate:
    """Averages over repetitions of a full sample-and-validate pass."""

    mean_estimate: float
    var_estimate: float
    loss: float


def repeated_kfcv(
    data: Dataset,
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
    repetitions run as one batch of the pass kernel. k is ``weights.k``
    (>= 2), and ``repetitions`` (>= 1) must be integral (5.0 is taken
    as 5) and at most ``errors._MAX_ENTRIES // k``, as the batch holds
    repetitions x k fold losses. A call whose window can draw a size
    that cannot train fails before any draw.
    """
    repetitions = _passes("repetitions", repetitions, weights.k)
    passes = _run_passes(
        data, weights.k, repetitions, (stream,) * 3,
        fraction_range=fraction_range,
    )
    # the mean over repetitions of weighted_kfold_loss, in one reduce
    return KfcvEstimate(
        mean_estimate=_mean(passes.train_means),
        var_estimate=_mean(passes.train_vars),
        loss=_mean(passes.fold_losses, weights=weights.lambdas),
    )
