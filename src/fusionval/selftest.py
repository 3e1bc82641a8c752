"""Built-in invariant suite behind the ``selftest`` subcommand.

Each check is small enough to run on every install (a few seconds
total) and covers one structural or algebraic guarantee end to end.
Statistical checks use fixed streams, so outcomes are reproducible.

The kernel check holds the package's one reference for the pass kernel,
which the kernel tests use too: :func:`_replay_draw` states the draw
contract in plain numpy calls, and :func:`_exact_scores` scores passes
in exact rational arithmetic under their derived error bounds.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from .fsv import FsvConfig, compound_measure, fsv_run
from .harness import (
    ExperimentConfig,
    emit_markdown_table,
    report_from_dict,
    report_to_dict,
    run_experiment,
)
from .kfold import (
    LambdaWeights,
    empirical_kfold_loss,
    make_folds,
    repeated_kfcv,
    weighted_kfold_loss,
)
from .metrics import METRIC_FIELDS
from .rng import RngStream, derive_stream
from .sampling import inclusion_moments, srs_sample
from .data import generate_dataset
from .theory import (
    chebyshev_tail,
    hoeffding_tail,
    hybrid_variance,
    srs_variance_component,
)

__all__ = ["run_selftest", "CHECKS"]

# scipy.stats.chi2.ppf(0.999, 9): the uniformity check's cutoff, for the
# 10 subsets of 2 of 5 points; a literal, so no check loads scipy
_CHI2_999_DF9 = 27.877164871256568
_U = 2.0**-53  # float64's unit roundoff


def _require(ok, message: str) -> None:
    """Raise AssertionError, a failed check, unless ``ok``. Every check
    states its conditions this way: ``python -O`` strips ``assert``."""
    if not ok:
        raise AssertionError(message)


def _check_stream_replay() -> str:
    a = derive_stream(42, 3, 1).generator.random(1000)
    b = derive_stream(42, 3, 1).generator.random(1000)
    _require(np.array_equal(a, b), "replay of one stream diverged")
    c = derive_stream(42, 4, 1).generator.random(1000)
    _require(not np.array_equal(a, c), "distinct trials produced equal draws")
    return "replay identical, distinct trials differ"


def _check_fold_invariants() -> str:
    stream = RngStream(7, 0)
    count = 0
    for size in range(2, 13):
        for k in range(2, size + 1):
            plan = make_folds(size, k, stream)
            merged = np.sort(np.concatenate(plan.folds))
            _require(np.array_equal(merged, np.arange(size)), "not a cover")
            sizes = [len(f) for f in plan.folds]
            _require(max(sizes) - min(sizes) <= 1, f"fold sizes {sizes}")
            count += 1
    return f"{count} (size, k) plans disjoint, covering, balanced"


def _check_srs_uniformity() -> str:
    n, m, draws = 5, 2, 50_000
    data = generate_dataset(n, 0.0, 1.0, RngStream(7, 1))
    stream = RngStream(7, 2)
    cells = {c: 0 for c in combinations(range(n), m)}
    for _ in range(draws):
        view = srs_sample(data, m, stream)
        cells[tuple(view.indices)] += 1
    expected = draws / len(cells)
    chi2 = sum((c - expected) ** 2 / expected for c in cells.values())
    cutoff = _CHI2_999_DF9
    _require(chi2 < cutoff, f"chi2 {chi2:.1f} >= cutoff {cutoff:.1f}")
    return f"chi2 {chi2:.1f} < {cutoff:.1f} over {len(cells)} subsets"


def _check_inclusion_and_fpc() -> str:
    _require(inclusion_moments(100, 100) == (100.0, 0.0), "census moments")
    e, v = inclusion_moments(10_000, 7_500)
    _require((e, v) == (7500.0, 1875.0), f"moments {(e, v)}")
    _require(srs_variance_component(1.0, 200, 200) == 0.0, "census term")
    return "moments exact, correction 0 at full census"


def _check_weighted_loss() -> str:
    losses = [0.91, 1.07, 1.02, 0.98, 1.01]
    uniform = LambdaWeights.uniform(5)
    _require(
        weighted_kfold_loss(losses, uniform) == empirical_kfold_loss(losses),
        "uniform weights changed the plain mean",
    )
    two_fold = weighted_kfold_loss([2.0, 0.0], LambdaWeights([2.0, 0.0]))
    _require(two_fold == 2.0, f"zero-weight loss {two_fold}")
    equal = weighted_kfold_loss(
        np.ones(4), LambdaWeights([0.5, 1.5, 1.25, 0.75])
    )
    _require(equal == 1.0, f"equal-loss mean {equal}")
    # the weight scales the loss after _mean's power of two: 2 * 1e308
    # alone would overflow
    large = weighted_kfold_loss([1e308, 1.0], LambdaWeights([2.0, 0.0]))
    _require(large == 1e308, f"large-loss mean {large}")
    return "uniform, zero-weight, equal-loss and large-loss identities hold"


def _check_compounding() -> str:
    losses = np.array([3.0, 5.0])
    _require(compound_measure(losses, 1.0) == 4.0, "plain mean")
    _require(compound_measure(np.ones(3), 0.95) == 0.95, "shrinkage")
    scaled = compound_measure(2.5 * losses, 0.5)
    want = 2.5 * compound_measure(losses, 0.5)
    _require(math.isclose(scaled, want, rel_tol=1e-12), "homogeneity")
    return "mean, shrinkage, and homogeneity identities hold"


def _replay_draw(n, streams, window):
    """One pass's draws on the (fraction, subset, folds) triple of
    streams, made with plain numpy calls in the kernel's order: the
    fraction by ``uniform`` on ``window``, a subset of
    m = round(fraction * n) points by a sorted ``choice``, and its fold
    order by ``permutation(m)``. Returns the fraction and the subset's
    indices in fold order, cut into k folds as ``np.array_split`` cuts
    them. The kernel's loop (``kfold._run_passes``) makes the same draws
    its own way; this is the draw contract stated apart from it."""
    fraction_draws, draws, fold_draws = (s.generator for s in streams)
    fraction = float(fraction_draws.uniform(*window))
    m = int(round(fraction * n))
    subset = np.sort(draws.choice(n, size=m, replace=False, shuffle=False))
    return fraction, subset[fold_draws.permutation(m)]


def _exact_scores(data, k, draws, holdout=True):
    """Per pass of ``draws``, (fraction, subset indices in fold order)
    pairs as :func:`_replay_draw` gives them, each statistic of the
    kernel's ``_Passes`` in exact rational arithmetic on the stored
    doubles of ``data``, with the bound that rounding leaves the
    kernel's float within: a dict of the ``fraction``, ``m`` and, per
    statistic, a list of (exact value, bound) pairs, one per fold or
    one for the pass. ``holdout_mse`` comes only with ``holdout``.

    The bounds carry the rounding of the kernel's steps to first order
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    ch. 4; Chan, Golub and LeVeque, 1983). With u = 2**-53 and A the
    largest distance of a value from the pilot, the first value,
    shifting a value errs by at most e = u*A, a float sum of N terms by
    (N - 1) u times the sum of their sizes, and a centred sum of squares
    cancels its mean's error to first order. A pass has m points in k
    folds, the largest of c; a fold has n_i points, its training
    complement r and the holdout h. A variance's or loss's M2 term is
    the complement's subtraction, which keeps only the precision of the
    whole's M2. Each bound also carries its second-order terms, which
    matter only where the first-order ones vanish. The bounds are worst
    cases, not fitted: over 4 500 strategy-test calls the largest error
    was 0.997 of its bound, on a training mean, where one rounding of
    ``mean + pilot`` takes nearly all of u*|mean|."""
    # the values as integers over one power-of-two denominator: sums of
    # them and of their squares are exact, and far faster than Fractions
    ratios = [v.as_integer_ratio() for v in data.values.tolist()]
    scale = max(d for _, d in ratios)
    xs = [a * (scale // d) for a, d in ratios]
    n, sq = len(xs), scale * scale
    a = max(abs(x - xs[0]) for x in xs) / scale

    def totals(indices):
        # count, sum and sum of squares, in units of 1 / scale
        return (
            len(indices),
            sum(xs[j] for j in indices),
            sum(xs[j] * xs[j] for j in indices),
        )

    def m2(c, s1, s2):
        return Fraction(c * s2 - s1 * s1, c * sq)

    def loss(part, centre):
        # a part's mean squared error about the mean of ``centre``
        (c, s1, s2), (tc, ts1, _) = part, centre
        return Fraction(
            s2 * tc * tc - 2 * ts1 * s1 * tc + c * ts1 * ts1, c * tc * tc * sq
        )

    whole = totals(range(n))
    data_m2 = float(m2(*whole))
    e = _U * a
    for fraction, order in draws:
        folds = [totals(fold.tolist()) for fold in np.array_split(order, k)]
        sample = tuple(map(sum, zip(*folds)))
        m = sample[0]
        c = max(fold[0] for fold in folds)
        sample_m2 = float(m2(*sample))
        root = math.sqrt(sample_m2)
        # second order: squared errors of the fold and sample means
        square = m * ((c + 4) ** 2 + (2 * c + k + 3) ** 2) * e * e
        want = Fraction(sample[1], m * scale)
        bound = _U * abs(float(want)) + (1 + _U) * (c + k) * e
        score = {"fraction": fraction, "m": m, "sample_mean": [(want, bound)]}
        want = m2(*sample) / (m - 1)
        bound = _U * float(want) + (
            _U * (c + k + 4) * sample_m2
            + 2 * (c + 2) * e * math.sqrt(m) * root
            + square
        ) / (m - 1)
        score["sample_var"] = [(want, bound)]
        if holdout:
            rest = tuple(x - y for x, y in zip(whole, sample))
            h = rest[0]
            want = loss(rest, sample)
            gap = c + k + 4 + (n * n + (c + k - 1) * m) / h
            rest_m2 = (
                _U * (n + c + k + 11) * data_m2
                + 2 * e * math.sqrt(data_m2)
                * (math.sqrt(n) + (c + 2) * math.sqrt(m) + gap * math.sqrt(h))
                + square + (n * (n + 4) ** 2 + h * gap * gap) * e * e
            )
            bound = (
                2 * _U * float(want)
                + rest_m2 / h
                + 2 * gap * e * math.sqrt(float(want))
                + (gap * e) ** 2
            )
            score["holdout_mse"] = [(want, bound)]
        means, variances, losses = [], [], []
        for fold in folds:
            train = tuple(x - y for x, y in zip(sample, fold))
            r, size = train[0], fold[0]
            drift = (k - 1) * m / r
            gap = 2 * c + 5 + drift
            want = Fraction(train[1], r * scale)
            bound = _U * abs(float(want)) + (1 + _U) * (c + 2 + drift) * e
            means.append((want, bound))
            want = m2(*train) / (r - 1)
            bound = _U * float(want) + (
                _U * (2 * c + k + 11) * sample_m2
                + 2 * e * root
                * ((c + 2) * math.sqrt(m) + (gap + 1) * math.sqrt(size))
                + square + size * ((size + 4) ** 2 + gap * gap) * e * e
            ) / (r - 1)
            variances.append((want, bound))
            want = loss(fold, train)
            bound = (
                _U * (size + 4) * float(want)
                + 2 * (gap + 1) * e * math.sqrt(float(want))
                + ((size + 4) ** 2 + gap * gap) * e * e
            )
            losses.append((want, bound))
        score.update(
            train_means=means, train_vars=variances, fold_losses=losses
        )
        yield score


def _held(label, got, pairs) -> float:
    """Fails unless each entry of ``got`` lies within the bound of its
    exact value, ``pairs`` holding one (exact value, bound) per entry;
    returns the worst error as a share of its bound."""
    worst = 0.0
    entries = zip(np.atleast_1d(got).tolist(), pairs, strict=True)
    for i, (value, (want, bound)) in enumerate(entries):
        entry = f"{label} [{i}]" if len(pairs) > 1 else label
        _require(math.isfinite(value), f"{entry} is {value!r}")
        error = abs(Fraction(value) - want)
        _require(
            error <= Fraction(bound),
            f"{entry}: {value!r} is {float(error):.3g} from its exact value, "
            f"over its bound {bound:.3g}",
        )
        if error:
            worst = max(worst, float(error) / bound)
    return worst


# Each rule below turns the (exact value, bound) of its float input into
# those of its float result: the input's bound plus the one rounding of
# the result, at most u times its size.
def _rounded(want, bound):
    return want, bound + _U * (abs(float(want)) + bound)


def _distance(pair, c):
    """|x - c| for a float c: as far off as x, plus one rounding."""
    return _rounded(abs(pair[0] - Fraction(c)), pair[1])


def _scaled(pair, s):
    """s * x for a float s >= 0."""
    return _rounded(Fraction(s) * pair[0], s * pair[1])


def _mean_of(pairs):
    """The mean of N values: the mean of their bounds, plus the float
    sum's (N - 1) u times the mean of their sizes, plus one rounding."""
    count = len(pairs)
    want = sum(w for w, _ in pairs) / count
    size = sum(abs(float(w)) + b for w, b in pairs) / count
    spread = sum(b for _, b in pairs) / count
    return _rounded(want, spread + (count - 1) * _U * size)


def _replayed_scores(data, k, passes, window, streams, replays, *, holdout):
    """The exact scores of ``passes`` passes whose draws
    :func:`_replay_draw` replays on ``replays``, clones of the
    (fraction, subset, folds) triple ``streams`` taken before a call on
    it; ``streams`` must end where the replay does."""
    draws = [_replay_draw(data.n, replays, window) for _ in range(passes)]
    _require(
        [s.generator.bit_generator.state for s in streams]
        == [s.generator.bit_generator.state for s in replays],
        "the call left its streams elsewhere than the per-pass replay",
    )
    return list(_exact_scores(data, k, draws, holdout))


def _check_fsv_run(data, config, stream) -> tuple[float, list]:
    """``fsv_run`` on ``stream`` against the exact scores of its passes:
    every metric, iteration loss and L* within its bound. Returns the
    worst error as a share of its bound, and the scores."""
    replay = stream.clone()
    result = fsv_run(data, config, stream)
    scores = _replayed_scores(
        data, config.k, config.iterations, config.fraction_range,
        (stream,) * 3, (replay,) * 3, holdout=True,
    )
    checks, losses = [], []
    for p, score in enumerate(scores):
        (mean,), (var,) = score["sample_mean"], score["sample_var"]
        folds = score["fold_losses"]
        columns = (
            mean, var, *score["holdout_mse"],
            _distance(folds[0], data.true_var),
            _distance(mean, data.true_mean), _distance(var, data.true_var),
        )
        row = zip(METRIC_FIELDS, result.metrics[p], columns)
        checks += [
            (f"iteration {p} {field}", got, [_scaled(pair, config.alpha)])
            for field, got, pair in row
        ]
        losses.append(_mean_of(folds))
        got = result.iteration_losses[p]
        checks.append((f"iteration {p} loss", got, losses[-1:]))
    want = [_scaled(_mean_of(losses), config.alpha)]
    checks.append(("L*", result.compounded_measure, want))
    return max(_held(*check) for check in checks), scores


def _check_repeated_kfcv(
    data, repetitions, weights, stream, window
) -> tuple[float, list]:
    """``repeated_kfcv`` on ``stream`` against the exact scores of its
    passes: each average within its bound. Returns the worst error as a
    share of its bound, and the scores."""
    replay = stream.clone()
    est = repeated_kfcv(
        data, repetitions, weights, stream, fraction_range=window
    )
    scores = _replayed_scores(
        data, weights.k, repetitions, window, (stream,) * 3, (replay,) * 3,
        holdout=False,
    )

    def want(name, lambdas=None):
        pairs = [pair for score in scores for pair in score[name]]
        if lambdas is not None:
            pairs = [_scaled(*pl) for pl in zip(pairs, lambdas * repetitions)]
        return [_mean_of(pairs)]

    worst = max(
        _held("mean_estimate", est.mean_estimate, want("train_means")),
        _held("var_estimate", est.var_estimate, want("train_vars")),
        _held("loss", est.loss, want("fold_losses", weights.lambdas.tolist())),
    )
    return worst, scores


def _check_pass_kernel() -> str:
    # fsv_run and repeated_kfcv score their passes in batches; replay
    # each pass's draws with plain numpy calls and score it exactly.
    # Every iteration draws at least 180 of the 300 points, so the 60
    # fill more than one of the kernel's 8 192-float batches, and a
    # batch is scored mid-call.
    data = generate_dataset(300, 1e9, 1.0, RngStream(7, 3))
    config = FsvConfig(iterations=60, alpha=0.95, k=5)
    weights = LambdaWeights([0.5, 1.5, 1.25, 0.75, 1.0])
    worst, _ = _check_fsv_run(data, config, RngStream(7, 4))
    kfcv, _ = _check_repeated_kfcv(
        data, 20, weights, RngStream(7, 5), config.fraction_range
    )
    worst = max(worst, kfcv)
    return (
        f"{config.iterations} fsv_run iterations and 20 repetitions at "
        "mu=1e9, in more than one batch, within the derived bound of "
        f"their exact values (worst {worst:.2g} of it), streams in step"
    )


def _check_shared_stream_identity() -> str:
    config = ExperimentConfig(
        sizes=(400,), trials=(12,), repetitions=2, shared_streams=True
    )
    report = run_experiment(config, jobs=1)
    cell = report.cell(400, 12)
    fsv, srs = cell.trials["FSV"], cell.trials["SRS"]
    _require(
        np.array_equal(fsv, 0.95 * srs),
        f"worst deviation {np.abs(fsv - 0.95 * srs).max():.2e}",
    )
    return f"all {fsv.size} FSV trial values = 0.95 x SRS exactly"


def _check_bounds() -> str:
    _require(chebyshev_tail(0.5) == 1.0, "Chebyshev cap")
    _require(chebyshev_tail(2.0) == 0.25, "Chebyshev at 2 sigma")
    bound = hoeffding_tail(0.0, 10, 0.0, 1.0)
    _require(bound.raw == 2.0 and bound.capped == 1.0, f"Hoeffding {bound}")
    b1 = hybrid_variance(1.0, 7_500, 10_000, [0.0013] * 5, 10)
    b2 = hybrid_variance(1.0, 7_500, 10_000, [0.0013] * 5, 20)
    _require(
        math.isclose(b1.total_per_t, 2 * b2.total_per_t, rel_tol=1e-12),
        "the budget per T does not halve when T doubles",
    )
    return "caps and the 1/T law hold"


def _check_harness_determinism() -> str:
    config = ExperimentConfig(sizes=(300,), trials=(5,), repetitions=2)
    a = run_experiment(config, jobs=1)
    b = run_experiment(config, jobs=1)
    da, db = report_to_dict(a), report_to_dict(b)
    reloaded = report_to_dict(report_from_dict(da))
    _require(
        json.dumps(reloaded, sort_keys=True) == json.dumps(da, sort_keys=True),
        "the report changed on a round trip through report_from_dict",
    )
    da.pop("wall_time_s"), db.pop("wall_time_s")
    _require(
        json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True),
        "a replayed run gave another report",
    )
    emit_markdown_table(a, 300)
    return "replayed report payloads identical, round trip verified"


CHECKS = (
    ("stream replay and distinctness", _check_stream_replay),
    ("fold plan invariants (sizes 2..12)", _check_fold_invariants),
    ("subset uniformity chi-squared", _check_srs_uniformity),
    ("inclusion moments and census correction", _check_inclusion_and_fpc),
    ("weighted fold loss identities", _check_weighted_loss),
    ("compounded measure identities", _check_compounding),
    ("batched pass kernel vs per-pass replay", _check_pass_kernel),
    ("shared-stream scaling identity", _check_shared_stream_identity),
    ("concentration bound caps and 1/T law", _check_bounds),
    ("harness determinism", _check_harness_determinism),
)


def run_selftest() -> bool:
    """Run every check, printing one line each; returns True when all
    pass. A check that raises anything but a failed condition's
    AssertionError fails too, its line naming the exception's type, and
    the checks after it still run."""
    all_ok = True
    for name, check in CHECKS:
        try:
            detail = check()
        except AssertionError as exc:
            all_ok = False
            print(f"[FAIL] {name}: {exc}")
        except Exception as exc:
            all_ok = False
            print(f"[FAIL] {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"[PASS] {name}: {detail}")
    return all_ok
