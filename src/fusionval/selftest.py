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
from scipy import stats as sps

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
    kfold_losses,
    make_folds,
    weighted_kfold_loss,
)
from .rng import RngStream, derive_stream
from .sampling import (
    draw_partition_fraction,
    holdout_values,
    inclusion_moments,
    sample_values,
    srs_sample,
)
from .data import generate_dataset
from .theory import (
    chebyshev_tail,
    hoeffding_tail,
    hybrid_variance,
    srs_variance_component,
)

__all__ = ["run_selftest", "CHECKS"]


def _check_stream_replay() -> str:
    a = derive_stream(42, 3, 1).generator.random(1000)
    b = derive_stream(42, 3, 1).generator.random(1000)
    assert np.array_equal(a, b), "replay of one stream diverged"
    c = derive_stream(42, 4, 1).generator.random(1000)
    assert not np.array_equal(a, c), "distinct trials produced equal draws"
    return "replay identical, distinct trials differ"


def _check_fold_invariants() -> str:
    stream = RngStream(7, 0)
    count = 0
    for size in range(2, 13):
        for k in range(2, size + 1):
            plan = make_folds(size, k, stream)
            merged = np.sort(np.concatenate(plan.folds))
            assert np.array_equal(merged, np.arange(size))
            sizes = [len(f) for f in plan.folds]
            assert max(sizes) - min(sizes) <= 1
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
    cutoff = float(sps.chi2.ppf(0.999, len(cells) - 1))
    assert chi2 < cutoff, f"chi2 {chi2:.1f} >= cutoff {cutoff:.1f}"
    return f"chi2 {chi2:.1f} < {cutoff:.1f} over {len(cells)} subsets"


def _check_inclusion_and_fpc() -> str:
    assert inclusion_moments(100, 100) == (100.0, 0.0)
    e, v = inclusion_moments(10_000, 7_500)
    assert (e, v) == (7500.0, 1875.0)
    assert srs_variance_component(1.0, 200, 200) == 0.0
    return "moments exact, correction 0 at full census"


def _check_weighted_loss() -> str:
    losses = np.array([0.91, 1.07, 1.02, 0.98, 1.01])
    uniform = LambdaWeights.uniform(5)
    assert weighted_kfold_loss(losses, uniform) == empirical_kfold_loss(
        losses
    ), "uniform weights changed the plain mean"
    two_fold = weighted_kfold_loss(
        np.array([2.0, 0.0]), LambdaWeights(np.array([2.0, 0.0]))
    )
    assert two_fold == 2.0
    equal = weighted_kfold_loss(
        np.full(4, 1.0), LambdaWeights(np.array([0.5, 1.5, 1.25, 0.75]))
    )
    assert equal == 1.0
    return "uniform, zero-weight, and equal-loss identities hold"


def _check_compounding() -> str:
    losses = np.array([3.0, 5.0])
    assert compound_measure(losses, 1.0) == 4.0
    assert compound_measure(np.ones(3), 0.95) == 0.95
    scaled = compound_measure(2.5 * losses, 0.5)
    assert math.isclose(scaled, 2.5 * compound_measure(losses, 0.5), rel_tol=1e-12)
    return "mean, shrinkage, and homogeneity identities hold"


def _check_pass_kernel() -> str:
    # fsv_run scores its iterations as one batch; replay each one on its
    # own through the public per-pass functions
    data = generate_dataset(300, 1e9, 1.0, RngStream(7, 3))
    config = FsvConfig(iterations=20, alpha=0.95, k=5)
    stream, ref_stream = RngStream(7, 4), RngStream(7, 4)
    result = fsv_run(data, config, stream)
    # relative 1e-9 plus 64 ulps of the data; squared values also move by
    # 2 sqrt(value) times that slack; the holdout, taken from the dataset's
    # totals, by 64 ulps of the dataset's M2 over the holdout's size
    slack = 64 * math.ulp(float(np.abs(data.values).max()))
    dev = data.values - data.values.mean()
    data_m2 = float((dev * dev).sum())
    worst = 0.0
    for t, row in enumerate(result.iteration_metrics):
        f = draw_partition_fraction(ref_stream, *config.fraction_range)
        m = int(round(f * data.n))
        view = srs_sample(data, m, ref_stream)
        sample = sample_values(data, view)
        params = fit(sample)
        holdout = loss(params, holdout_values(data, view))
        plan = make_folds(m, config.k, ref_stream)
        fold_loss = float(kfold_losses(sample, plan).mean())
        for got, want, squared, extra in (
            (result.iteration_losses[t], fold_loss, True, 0.0),
            (row.mean_est, config.alpha * params.fitted_mean, False, 0.0),
            (row.var_est, config.alpha * params.fitted_var, True, 0.0),
            (row.mse, config.alpha * holdout, True,
             64 * math.ulp(data_m2) / (data.n - m)),
        ):
            tol = 1e-9 * abs(want) + slack + extra
            if squared:
                tol += slack * (2 * math.sqrt(abs(want)) + slack)
            assert abs(got - want) <= tol, (
                f"iteration {t}: {got!r} != {want!r}"
            )
            worst = max(worst, abs(got - want) / tol)
    state = stream.generator.bit_generator.state
    assert state == ref_stream.generator.bit_generator.state, (
        "the batch left its stream elsewhere than the per-pass replay"
    )
    return (
        f"{result.iterations} iterations at mu=1e9 match the per-pass "
        f"replay (worst {worst:.2g} of tolerance), streams in step"
    )


def _check_shared_stream_identity() -> str:
    config = ExperimentConfig(
        sizes=(400,), trials=(12,), repetitions=2, shared_streams=True
    )
    report = run_experiment(config, jobs=1)
    cell = report.cell(400, 12)
    fsv, srs = cell.trials["FSV"], cell.trials["SRS"]
    assert np.array_equal(fsv, 0.95 * srs), (
        f"worst deviation {np.abs(fsv - 0.95 * srs).max():.2e}"
    )
    return f"all {fsv.size} FSV trial values = 0.95 x SRS exactly"


def _check_bounds() -> str:
    assert chebyshev_tail(0.5) == 1.0
    assert chebyshev_tail(2.0) == 0.25
    bound = hoeffding_tail(0.0, 10, 0.0, 1.0)
    assert bound.raw == 2.0 and bound.capped == 1.0
    b1 = hybrid_variance(1.0, 7_500, 10_000, [0.0013] * 5, 10)
    b2 = hybrid_variance(1.0, 7_500, 10_000, [0.0013] * 5, 20)
    assert math.isclose(b1.total_per_t, 2 * b2.total_per_t, rel_tol=1e-12)
    return "caps and the 1/T law hold"


def _check_harness_determinism() -> str:
    config = ExperimentConfig(sizes=(300,), trials=(5,), repetitions=2)
    a = run_experiment(config, jobs=1)
    b = run_experiment(config, jobs=1)
    da, db = report_to_dict(a), report_to_dict(b)
    reloaded = report_to_dict(report_from_dict(da))
    assert json.dumps(reloaded, sort_keys=True) == json.dumps(
        da, sort_keys=True
    ), "the report changed on a round trip through report_from_dict"
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
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
    """Run every check; returns True when all pass."""
    all_ok = True
    for name, check in CHECKS:
        try:
            detail = check()
        except AssertionError as exc:
            all_ok = False
            echo(f"[FAIL] {name}: {exc}")
        else:
            echo(f"[PASS] {name}: {detail}")
    return all_ok
