"""K-fold cross-validation with per-fold loss weighting.

Folds are disjoint, exhaustive, and near-equal (sizes differ by at most
one). The plain estimate averages the k fold losses; the weighted
variant scales fold i by lambda_i / k, and keeping the weights summing
to k preserves unbiasedness while letting the weights shift variance
between folds.

All k fold statistics come from one vectorised pass (:func:`_fold_stats`)
rather than k fits on concatenated training complements. The sample is
first shifted by a pilot value, its first element, so that sums stay of
the order of the spread rather than of the mean: with mu = 1e9 and
sigma = 1e-3 an unshifted sum would lose the spread to rounding. Per
fold it takes the count n_i, the sum and the centred sum of squares
M2_i. The pairwise update of Chan, Golub and LeVeque (1979) combines
two groups a and b as

    M2_ab = M2_a + M2_b + (n_a n_b / (n_a + n_b)) (mean_a - mean_b)^2,

so the whole sample's M2 follows from the folds' statistics, and each
training complement's M2 follows by running the update in reverse:
subtract the fold's own M2 and the cross term between the fold and its
complement from the total. The loss of fold i around the complement's
mean is then M2_i / n_i + (mean_i - mean_complement)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ValidationError
from .rng import RngStream
from .sampling import FRACTION_RANGE, draw_partition_fraction, srs_sample

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
        if len(self.folds) != self.k:
            raise ValidationError(
                f"expected {self.k} folds, got {len(self.folds)}"
            )
        sizes = [len(f) for f in self.folds]
        if min(sizes) < 1:
            raise ValidationError("every fold must be non-empty")
        if max(sizes) - min(sizes) > 1:
            raise ValidationError(
                f"fold sizes may differ by at most 1, got {sizes}"
            )
        merged = np.concatenate(self.folds)
        if not np.issubdtype(merged.dtype, np.integer):
            raise ValidationError(
                f"fold indices must be integers, got dtype {merged.dtype}"
            )
        total = len(merged)
        if merged.min() != 0 or merged.max() != total - 1:
            raise ValidationError(
                "folds must exactly cover range(total)"
            )
        # total indices, all in range(total): one left unmarked means
        # another repeats. Marking booleans is cheaper than np.bincount,
        # whose int64 counts take eight times the memory.
        seen = np.zeros(total, dtype=bool)
        seen[merged] = True
        if not seen.all():
            raise ValidationError("folds must be disjoint")
        for f in self.folds:
            f.setflags(write=False)
        merged.setflags(write=False)
        object.__setattr__(self, "_order", merged)

    @property
    def total(self) -> int:
        return len(self._order)

    def complement(self, i: int) -> np.ndarray:
        """All indices outside fold i (the training split)."""
        if not 0 <= i < self.k:
            raise ValidationError(f"fold index {i} out of range(0, {self.k})")
        return np.concatenate(
            [f for j, f in enumerate(self.folds) if j != i]
        )


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
    perm = stream.generator.permutation(sample_size)
    parts = np.array_split(perm, k)
    return FoldPlan(folds=tuple(parts), k=k)


def _fold_stats(
    sample: np.ndarray, plan: FoldPlan
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-fold loss, training mean and ddof=1 training variance.

    Fold i's model is fit on its training complement and scored on the
    fold, as ``loss(fit(sample[plan.complement(i)]), sample[fold])``
    would, but from sufficient statistics in one pass (see the module
    docstring). ``sample`` must be a float64 vector of length
    ``plan.total``.
    """
    sizes = np.array([len(f) for f in plan.folds])
    total = plan.total
    train_sizes = total - sizes
    if train_sizes.min() < 2:
        i = int(train_sizes.argmin())
        raise ValidationError(
            f"training complement of fold {i} has {train_sizes[i]} "
            "points, need at least 2"
        )
    # in-place steps: each fresh array of m floats costs page faults
    y = sample[plan._order]
    pilot = y[0]
    y -= pilot
    starts = np.cumsum(sizes) - sizes
    fold_sum = np.add.reduceat(y, starts)
    fold_mean = fold_sum / sizes
    dev = np.repeat(fold_mean, sizes)
    np.subtract(y, dev, out=dev)
    dev *= dev
    fold_m2 = np.add.reduceat(dev, starts)
    total_sum = fold_sum.sum()
    spread = fold_mean - total_sum / total
    total_m2 = fold_m2.sum() + (sizes * spread * spread).sum()
    train_mean = (total_sum - fold_sum) / train_sizes
    gap = fold_mean - train_mean
    cross = sizes * train_sizes / total * gap * gap
    train_m2 = total_m2 - fold_m2 - cross
    losses = fold_m2 / sizes + gap * gap
    train_var = np.maximum(train_m2, 0.0) / (train_sizes - 1)
    return losses, train_mean + pilot, train_var


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

    With ``unbiased=True`` (the default) the weights must sum to k, the
    condition under which the weighted loss keeps the plain estimate's
    expectation. Weights must be finite and non-negative; zero weights
    are allowed and simply drop a fold from the average.
    """

    lambdas: np.ndarray
    unbiased: bool = True

    def __post_init__(self) -> None:
        arr = np.asarray(self.lambdas, dtype=np.float64)
        object.__setattr__(self, "lambdas", arr)
        if arr.ndim != 1 or len(arr) < 1:
            raise ValidationError("lambdas must be a non-empty vector")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise ValidationError(
                "lambdas must be finite and non-negative"
            )
        if self.unbiased and abs(arr.sum() - len(arr)) > _SUM_TOL:
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
    The returned estimates average over all repetitions and folds.
    """
    if repetitions < 1:
        raise ValidationError(
            f"repetitions must be >= 1, got {repetitions}"
        )
    if weights.k != k:
        raise ValidationError(
            f"weights have k={weights.k}, expected {k}"
        )
    mean_acc = 0.0
    var_acc = 0.0
    loss_acc = 0.0
    for _ in range(repetitions):
        f = draw_partition_fraction(stream, *fraction_range)
        m = int(round(f * data.n))
        view = srs_sample(data, m, stream)
        sample = data.values[view.indices]
        plan = make_folds(m, k, stream)
        fold_losses, train_means, train_vars = _fold_stats(sample, plan)
        mean_acc += float(train_means.sum())
        var_acc += float(train_vars.sum())
        loss_acc += weighted_kfold_loss(fold_losses, weights)
    scale = repetitions * k
    return KfcvEstimate(
        mean_estimate=mean_acc / scale,
        var_estimate=var_acc / scale,
        loss=loss_acc / repetitions,
        repetitions=repetitions,
        k=k,
    )
