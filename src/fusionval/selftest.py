"""Built-in invariant suite behind the ``selftest`` subcommand.

Each check is small enough to run on every install (a few seconds
total) and covers one structural or algebraic guarantee end to end.
Statistical checks use fixed streams, so outcomes are reproducible.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

import numpy as np

from .estimator import fit, loss
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
    return "uniform, zero-weight, and equal-loss identities hold"


def _check_compounding() -> str:
    losses = np.array([3.0, 5.0])
    _require(compound_measure(losses, 1.0) == 4.0, "plain mean")
    _require(compound_measure(np.ones(3), 0.95) == 0.95, "shrinkage")
    scaled = compound_measure(2.5 * losses, 0.5)
    want = 2.5 * compound_measure(losses, 0.5)
    _require(math.isclose(scaled, want, rel_tol=1e-12), "homogeneity")
    return "mean, shrinkage, and homogeneity identities hold"


def _fold_fits(sample, folds):
    """Every fold, a vector of positions in ``sample``, fitted and scored
    on its own: ``fit`` on its training complement, ``loss`` on the
    fold. Returns the fold losses, training means and training
    variances."""
    rows = []
    for fold in folds:
        params = fit(np.delete(sample, fold))
        rows.append(
            (loss(params, sample[fold]), params.fitted_mean, params.fitted_var)
        )
    return tuple(np.array(col) for col in zip(*rows))


def _replay_pass(data, k, streams, fraction_range):
    """One pass of the kernel made with plain numpy draws on the same
    (fraction, subset, folds) stream triple in the same order, and
    scored on its own: the fraction by ``uniform``, the subset by a
    sorted ``choice``, the fold order by ``permutation(m)`` cut as
    ``np.array_split`` cuts it, and the holdout as the subset's
    complement. ``holdout`` is None when the subsample is the whole
    dataset."""
    n = data.n
    fraction_draws, draws, fold_draws = (s.generator for s in streams)
    fraction = float(fraction_draws.uniform(*fraction_range))
    m = int(round(fraction * n))
    subset = np.sort(draws.choice(n, size=m, replace=False, shuffle=False))
    sample = data.values[subset]
    params = fit(sample)
    rest = np.delete(data.values, subset)
    folds = np.array_split(fold_draws.permutation(m), k)
    fold_losses, train_means, train_vars = _fold_fits(sample, folds)
    return {
        "fraction": fraction,
        "m": m,
        "mean": params.fitted_mean,
        "var": params.fitted_var,
        "holdout": loss(params, rest) if len(rest) else None,
        "fold_losses": fold_losses,
        "train_means": train_means,
        "train_vars": train_vars,
    }


def _slacks(values):
    """64 ulps of max|x| and 64 ulps of the centred sum of squares M2 of
    ``values``: the rounding that summing near the data's magnitude, and
    subtracting from the dataset's M2, may leave."""
    dev = values - values.mean()
    scales = (np.abs(values).max(), (dev * dev).sum())
    return tuple(64 * math.ulp(float(x)) for x in scales)


def _tolerance(want, slack, squared, holdout_m2_over_n=0.0):
    """How far the kernel may be from the per-pass reference ``want``
    (a value or an array): relative 1e-9 plus ``slack``, the first of
    :func:`_slacks`. Squared quantities, a variance or a loss, also move
    by 2 sqrt(value) slack + slack**2, the shift that slack in a fitted
    mean causes.

    The kernel takes a holdout's loss from the dataset's totals minus the
    subsample's. That difference rounds to ulps of the dataset's M2, so
    the loss of n_h points gets ``holdout_m2_over_n``, the second of
    :func:`_slacks` over n_h. Without it a holdout of one point within
    about 1e-2 standard deviations of the subsample mean fails the
    relative test: its loss is near 0 while M2 is about n sigma**2.
    """
    size = np.abs(want)
    tol = 1e-9 * size + slack + holdout_m2_over_n
    if squared:
        tol = tol + slack * (2 * np.sqrt(size) + slack)
    return tol


def _check_fsv_run(data, config, stream) -> float:
    """``fsv_run`` on ``stream`` against :func:`_replay_pass` on a clone,
    column by column of its metrics; returns the worst deviation as a
    share of its tolerance. The streams must end in the same state."""
    ref_stream = stream.clone()
    result = fsv_run(data, config, stream)
    refs = [
        _replay_pass(data, config.k, (ref_stream,) * 3, config.fraction_range)
        for _ in range(config.iterations)
    ]
    _require(
        stream.generator.bit_generator.state
        == ref_stream.generator.bit_generator.state,
        "the batch left its stream elsewhere than the per-pass replay",
    )
    slack, m2_slack = _slacks(data.values)
    mean, var, holdout, m = (
        np.array([ref[key] for ref in refs])
        for key in ("mean", "var", "holdout", "m")
    )
    losses = np.array([ref["fold_losses"] for ref in refs])
    roc_me = np.abs(mean - data.true_mean)
    # an absolute difference inherits the error of what it subtracts
    # from: the fold loss, the mean, the variance
    columns = {
        "mean_est": (mean, _tolerance(mean, slack, False)),
        "var_est": (var, _tolerance(var, slack, True)),
        "mse": (
            holdout,
            _tolerance(holdout, slack, True, m2_slack / (data.n - m)),
        ),
        "bias": (
            np.abs(losses[:, 0] - data.true_var),
            _tolerance(losses[:, 0], slack, True),
        ),
        "roc_me": (roc_me, _tolerance(roc_me, slack, False)),
        "roc_ve": (np.abs(var - data.true_var), _tolerance(var, slack, True)),
    }
    # the tolerance of an average is the average of the tolerances
    checks = [(
        "loss",
        result.iteration_losses,
        losses.mean(axis=1),
        _tolerance(losses, slack, True).mean(axis=1),
    )]
    for j, field in enumerate(METRIC_FIELDS):
        raw, tol = columns[field]
        want = config.alpha * raw
        # plus one ulp for the scaling by alpha
        tol = tol + np.spacing(np.abs(want))
        checks.append((field, result.metrics[:, j], want, tol))
    worst = 0.0
    for label, got, want, tol in checks:
        dev = np.abs(got - want)
        t = int((dev - tol).argmax())
        _require(
            dev[t] <= tol[t],
            f"iteration {t} {label}: {float(got[t])!r} != {float(want[t])!r} "
            f"(tol {tol[t]:.2g})",
        )
        worst = max(worst, float((dev / tol).max()))
    return worst


def _check_pass_kernel() -> str:
    # fsv_run scores its iterations in batches; replay each one on its
    # own with plain numpy draws, fit and loss. Every iteration draws
    # at least 180 of the 300 points, so the 60 fill more than one of
    # the kernel's 8 192-float batches, and a batch is scored mid-call.
    data = generate_dataset(300, 1e9, 1.0, RngStream(7, 3))
    config = FsvConfig(iterations=60, alpha=0.95, k=5)
    worst = _check_fsv_run(data, config, RngStream(7, 4))
    return (
        f"{config.iterations} iterations at mu=1e9, in more than one "
        f"batch, match the per-pass replay (worst {worst:.2g} of "
        "tolerance), streams in step"
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


def run_selftest(echo=print) -> bool:
    """Run every check; returns True when all pass. A check that raises
    anything but a failed condition's AssertionError fails too, its
    line naming the exception's type, and the checks after it still run."""
    all_ok = True
    for name, check in CHECKS:
        try:
            detail = check()
        except AssertionError as exc:
            all_ok = False
            echo(f"[FAIL] {name}: {exc}")
        except Exception as exc:
            all_ok = False
            echo(f"[FAIL] {name}: {type(exc).__name__}: {exc}")
        else:
            echo(f"[PASS] {name}: {detail}")
    return all_ok
