"""End-to-end acceptance checks for the reference protocol.

Each test covers one acceptance criterion and prints a single
[PASS]/[FAIL] line (visible under ``pytest -s``) before asserting, so a
full run reads as a checklist. Statistical bands are evaluated on the
fixed default seed. The replicate studies derive their streams from
trial indices reserved in 10 000 000-31 000 000. The grid's trial keys
are 48-bit hashes, so one of them lands in that range with probability
about 7.5e-8, and one of the default grid's 480 with at most 3.6e-5;
``test_default_grid_keys_avoid_the_reserved_range`` checks that none
does.
"""

import math
import time
from collections import Counter
from itertools import combinations

import numpy as np
from scipy.stats import chi2

from fusionval.data import generate_dataset
from fusionval.fsv import FsvConfig, fsv_run, sampled_kfold_trial
from fusionval.harness import ExperimentConfig, _trial_key, run_experiment
from fusionval.kfold import (
    LambdaWeights,
    empirical_kfold_loss,
    make_folds,
    weighted_kfold_loss,
)
from fusionval.rng import Purpose, derive_stream
from fusionval.sampling import srs_sample
from fusionval.theory import (
    chebyshev_tail,
    hoeffding_tail,
    srs_variance_component,
)


def _criterion(num: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] Criterion {num}: {detail}")
    assert ok, f"Criterion {num}: {detail}"


def test_criterion_1_reference_grid_bands(grid_report):
    cell = grid_report.cell(10_000, 100)
    stats = cell.summaries
    mean_ests = {m: stats[m]["mean_est"].mean for m in stats}
    var_srs = stats["SRS"]["var_est"].mean
    var_kf = stats["KFCV"]["var_est"].mean
    var_fsv = stats["FSV"]["var_est"].mean
    mse_fsv = stats["FSV"]["mse"].mean
    checks = [
        all(abs(v) <= 0.01 for v in mean_ests.values()),
        0.99 <= var_srs <= 1.01,
        0.99 <= var_kf <= 1.01,
        0.93 <= var_fsv <= 0.97,
        0.93 <= mse_fsv <= 0.98,
    ]
    detail = (
        f"mean est {mean_ests['SRS']:+.4f}/{mean_ests['KFCV']:+.4f}/"
        f"{mean_ests['FSV']:+.4f} (|.| <= 0.01), "
        f"var est {var_srs:.4f}/{var_kf:.4f} in [0.99, 1.01], "
        f"FSV var {var_fsv:.4f} in [0.93, 0.97], "
        f"FSV MSE {mse_fsv:.4f} in [0.93, 0.98]"
    )
    _criterion(1, all(checks), detail)


def test_criterion_2_scaling_identity(shared_grid_report):
    worst = 0.0
    for cell in shared_grid_report.cells:
        srs = cell.summaries["SRS"]
        fsv = cell.summaries["FSV"]
        for metric in srs:
            for side in ("mean", "min", "max"):
                dev = abs(
                    getattr(fsv[metric], side)
                    - 0.95 * getattr(srs[metric], side)
                )
                worst = max(worst, dev)
    _criterion(
        2,
        worst <= 1e-12,
        f"shared-stream summaries: max |FSV - 0.95*SRS| = {worst:.2e} "
        f"(<= 1e-12) across {len(shared_grid_report.cells)} cells",
    )


def test_criterion_3_bias_rate_in_population_size(grid_report):
    small = grid_report.cell(10_000, 100).summaries["SRS"]["bias"].mean
    large = grid_report.cell(100_000, 100).summaries["SRS"]["bias"].mean
    ratio = small / large
    lo, hi = math.sqrt(10) * 0.75, math.sqrt(10) * 1.25
    _criterion(
        3,
        lo <= ratio <= hi,
        f"bias(N=1e4)/bias(N=1e5) = {ratio:.3f} in "
        f"[{lo:.3f}, {hi:.3f}] at T=100",
    )


def test_criterion_4_mean_deviation_rate(grid_report):
    details = []
    ok = True
    for n in (10_000, 50_000, 100_000):
        got = grid_report.cell(n, 100).summaries["SRS"]["roc_me"].mean
        oracle = math.sqrt(2 / math.pi) / math.sqrt(0.75 * n)
        rel = abs(got - oracle) / oracle
        ok = ok and rel <= 0.15
        details.append(f"N={n}: {got:.5f} vs {oracle:.5f} ({rel:.1%})")
    _criterion(4, ok, "SRS mean-deviation rate, " + "; ".join(details))


def test_criterion_5_loss_expectation_and_weight_identity():
    trials = 2000
    means = []
    for i in range(trials):
        data = generate_dataset(
            10_000, 0.0, 1.0,
            derive_stream(42, 10_000_000 + i, Purpose.DATA),
        )
        trial = sampled_kfold_trial(
            data,
            5,
            derive_stream(42, 10_000_000 + i, Purpose.SAMPLE),
            folds_stream=derive_stream(42, 10_000_000 + i, Purpose.FOLDS),
            # every draw from this window rounds to m = 7 500 of 10 000
            fraction_stream=derive_stream(
                42, 10_000_000 + i, Purpose.FRACTION
            ),
            fraction_range=(0.74996, 0.75004),
        )
        assert trial.m == 7500
        means.append(trial.mean_fold_loss)
    arr = np.array(means)
    expected = 1.0 + 1.0 / 6000.0
    band = 4 * arr.std(ddof=1) / math.sqrt(trials)
    dev = abs(float(arr.mean()) - expected)

    losses = np.array([1.5] * 5)
    exact_uniform = weighted_kfold_loss(
        arr[:5], LambdaWeights.uniform(5)
    ) == empirical_kfold_loss(arr[:5])
    exact_skewed = (
        weighted_kfold_loss(
            losses, LambdaWeights(np.array([2.0, 0.5, 0.5, 1.0, 1.0]))
        )
        == 1.5
    )
    _criterion(
        5,
        dev <= band and exact_uniform and exact_skewed,
        f"mean loss {arr.mean():.6f} vs {expected:.6f} over {trials} "
        f"fresh-dataset trials (dev {dev:.2e} <= 4se {band:.2e}); "
        f"uniform weights exact: {exact_uniform}; "
        f"unit-sum skewed weights exact: {exact_skewed}",
    )


def test_criterion_6_compound_variance_law():
    data = generate_dataset(
        2000, 0.0, 1.0, derive_stream(42, 19_999_999, Purpose.DATA)
    )

    def replicate(iterations, base):
        vals = [
            fsv_run(
                data,
                FsvConfig(iterations=iterations, alpha=0.95, k=5),
                derive_stream(42, base + r, Purpose.SAMPLE),
            ).compounded_measure
            for r in range(400)
        ]
        return float(np.var(vals, ddof=1))

    v10 = replicate(10, 20_000_000)
    v40 = replicate(40, 21_000_000)
    ratio = v40 / v10
    _criterion(
        6,
        0.175 <= ratio <= 0.325,
        f"Var(L*) ratio T=40/T=10 = {ratio:.3f} in [0.175, 0.325] "
        f"over 400 replicate runs each",
    )


def test_criterion_7_tail_bounds_hold():
    runs = 5000
    data = generate_dataset(
        500, 0.0, 1.0, derive_stream(42, 29_999_999, Purpose.DATA)
    )
    config = FsvConfig(iterations=8, alpha=1.0, k=5)
    stats = []
    for r in range(runs):
        result = fsv_run(
            data, config, derive_stream(42, 30_000_000 + r, Purpose.SAMPLE)
        )
        clipped = np.clip(np.asarray(result.iteration_losses), 0.0, 4.0)
        stats.append(float(clipped.mean()))
    arr = np.array(stats)
    center, sd = float(arr.mean()), float(arr.std(ddof=1))
    details = []
    ok = True
    for k_dev in (1.5, 2.0, 3.0):
        freq = float((np.abs(arr - center) >= k_dev * sd).mean())
        bound = chebyshev_tail(k_dev)
        limit = bound + 3 * math.sqrt(bound * (1 - bound) / runs)
        ok = ok and freq <= limit
        details.append(f"cheb k={k_dev:g}: {freq:.4f} <= {limit:.4f}")
    for eps in (0.01, 0.02, 0.05):
        freq = float((np.abs(arr - center) >= eps).mean())
        bound = hoeffding_tail(eps, config.iterations, 0.0, 4.0).capped
        limit = bound + 3 * math.sqrt(bound * (1 - bound) / runs)
        ok = ok and freq <= limit
        details.append(f"hoef e={eps:g}: {freq:.4f} <= {limit:.4f}")
    _criterion(7, ok, f"{runs} clipped-loss runs, " + "; ".join(details))


def test_criterion_8_structural_invariants():
    fold_checks = 0
    for size in range(2, 13):
        for k in range(2, size + 1):
            plan = make_folds(size, k, derive_stream(7, size * 100 + k, 0))
            merged = np.sort(np.concatenate(plan.folds))
            assert np.array_equal(merged, np.arange(size))
            sizes = {len(f) for f in plan.folds}
            assert max(sizes) - min(sizes) <= 1
            fold_checks += 1

    draws = 200_000
    chi_details = []
    chi_ok = True
    for n, m in ((2, 1), (3, 2), (4, 3), (5, 3), (6, 3)):
        data = generate_dataset(
            n, 0.0, 1.0, derive_stream(7, 1000 + n, Purpose.DATA)
        )
        stream = derive_stream(7, 1000 + n, Purpose.SAMPLE)
        counts = Counter(
            tuple(srs_sample(data, m, stream).indices)
            for _ in range(draws)
        )
        cells = list(combinations(range(n), m))
        expected = draws / len(cells)
        stat = sum(
            (counts.get(c, 0) - expected) ** 2 / expected for c in cells
        )
        cutoff = float(chi2.ppf(0.999, len(cells) - 1))
        chi_ok = chi_ok and stat < cutoff
        chi_details.append(f"({n},{m}): {stat:.1f} < {cutoff:.1f}")

    fpc_ok = all(
        srs_variance_component(s, n, n) == 0.0
        for s, n in ((1.0, 1), (2.5, 7), (1.0, 10_000))
    )
    _criterion(
        8,
        chi_ok and fpc_ok,
        f"{fold_checks} fold plans exhaustively valid; subset-uniformity "
        f"chi2 at {draws} draws: " + "; ".join(chi_details)
        + f"; census correction exactly zero: {fpc_ok}",
    )


def test_default_grid_keys_avoid_the_reserved_range():
    config = ExperimentConfig()
    keys = [
        _trial_key(n, t, trial)
        for n in config.sizes
        for t in config.trials
        for trial in range(t)
    ]
    assert len(keys) == 480
    assert not [key for key in keys if 10_000_000 <= key < 31_000_000]


def test_criterion_9_runtime_budget(grid_report):
    started = time.perf_counter()
    run_experiment(
        ExperimentConfig(sizes=(10_000,), trials=(10,)), jobs=1
    )
    cell_s = time.perf_counter() - started
    grid_s = grid_report.wall_time_s
    _criterion(
        9,
        cell_s < 2.0 and grid_s < 300.0,
        f"single cell (1e4, 10) in {cell_s:.2f}s (< 2s); "
        f"full default grid in {grid_s:.1f}s (< 300s)",
    )
