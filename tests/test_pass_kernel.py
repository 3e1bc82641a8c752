"""The batched pass kernel against one reference.

``fsv_run``, ``repeated_kfcv`` and ``sampled_kfold_trial`` run on
``kfold._run_passes``. Per pass it makes ``srs_sample``'s subset draw,
with the same checks, takes the subsample in index order and shuffles
it in place on the stream ``make_folds`` would draw its permutation
from; numpy's ``permutation(m)`` is the same shuffle of ``arange(m)``,
so the subsample lands in ``make_folds``' fold order, in a bounded
per-call buffer. Each time the buffer fills, one ``_fold_moments`` call
reduces the passes in it; one statistics step then scores them all.

The reference is ``selftest``'s. ``selftest._replay_draw`` replays a
pass's draws on clones of the streams with plain numpy calls
(``uniform``, a sorted ``choice``, ``permutation`` cut as
``np.array_split`` cuts it), and after every call the streams must
stand exactly where the replay left them. ``selftest._exact_scores``
scores each replayed pass in exact rational arithmetic on the stored
doubles, never through the kernel's draw or statistics step, and states
the derived error bound of each statistic: the one accuracy rule, which
the strategy tests hold every output to, through the public results
too (``selftest._check_fsv_run`` and ``_check_repeated_kfcv``). The
bound for a holdout's loss grows as n**2 / h, so ``_hold_passes`` also
holds that loss to 64 ulps of itself plus 64 ulps of the dataset's M2
over h, which is tighter for small holdouts.
``TestDrawStep`` feeds the replayed draws, pass by pass, through
``_fold_moments`` and the same statistics step, and requires every
output bit for bit; its batch cases fill the buffer several times or
draw passes larger than its least size. ``TestFoldKernel`` holds one
plan's statistics step to the exact scores, and one test ties the
scorer's formulas to ``estimator.fit`` and ``loss``.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import one_stream_trial, pinning_window
from fusionval import kfold, sampling, selftest
from fusionval.data import Dataset, generate_dataset
from fusionval.estimator import fit, loss
from fusionval.errors import _SUM_LIMIT, ValidationError
from fusionval.fsv import (
    FsvConfig, compound_measure, fsv_run, sampled_kfold_trial
)
from fusionval.kfold import (
    FoldPlan,
    LambdaWeights,
    _combine,
    _complement,
    _fold_moments,
    _run_passes,
    _subsample_range,
    _trainable,
    kfold_losses,
    make_folds,
    repeated_kfcv,
)
from fusionval.metrics import METRIC_FIELDS, TrialMetrics, metric_table
from fusionval.rng import RngStream, derive_stream, standard_normal
from fusionval.sampling import draw_partition_fraction, srs_sample
from fusionval.selftest import _exact_scores, _held, _replay_draw
from fusionval.theory import (
    VarianceBudget, chebyshev_tail, chebyshev_threshold, hoeffding_tail
)


def _dataset(n, mu, scale, seed):
    values = mu + scale * np.random.default_rng(seed).standard_normal(n)
    return Dataset(values=values, true_mean=mu, true_var=scale * scale)


def _assert_ulps(label, got, pairs, ulps, slack=0):
    """Each entry of ``got`` within ``ulps`` times (one ulp of its exact
    value, from ``pairs`` of (exact value, bound), plus ``slack``)."""
    values = np.atleast_1d(got).tolist()
    for value, (want, _) in zip(values, pairs, strict=True):
        error = abs(Fraction(value) - want)
        assert error <= ulps * (Fraction(math.ulp(float(want))) + slack), label


def _m2_ulp(data):
    """One ulp of the exact centred sum of squares of ``data``'s values."""
    exact = [Fraction(v) for v in data.values.tolist()]
    centre = sum(exact) / len(exact)
    return Fraction(math.ulp(float(sum((v - centre) ** 2 for v in exact))))


# the statistics of kfold._Passes that selftest._exact_scores scores
_STATISTICS = (
    "sample_mean", "sample_var", "holdout_mse",
    "train_means", "train_vars", "fold_losses",
)


def _streams_equal(a, b):
    return a.generator.bit_generator.state == b.generator.bit_generator.state


def _triple(seed, split):
    """A fresh (fraction, subset, folds) triple of streams: three of
    their own, or one stream three times."""
    main = RngStream(seed, 1)
    return (RngStream(seed, 3), main, RngStream(seed, 2)) if split else (
        (main,) * 3
    )


def _own_fraction(seed):
    """A fresh (fraction, subset, folds) triple: the fraction on a stream
    of its own, the subset and the folds on one."""
    main = RngStream(seed, 1)
    return RngStream(seed, 2), main, main


_sizes = st.fixed_dictionaries(
    {
        "k": st.integers(min_value=2, max_value=10),
        "extra": st.one_of(
            st.sampled_from([0, 1]), st.integers(min_value=2, max_value=200)
        ),
        "rest": st.one_of(st.just(1), st.integers(min_value=2, max_value=80)),
        "mu": st.floats(min_value=-1e9, max_value=1e9),
        "log10_scale": st.floats(min_value=-3.0, max_value=3.0),
        "seed": st.integers(min_value=0, max_value=2**31),
    }
)


def _unpack(params):
    """(dataset, k, m): m = k + extra points, n - m = rest, trainable."""
    k = params["k"]
    m = k + params["extra"]
    assume(_trainable(m, k))
    data = _dataset(
        m + params["rest"],
        params["mu"],
        10.0 ** params["log10_scale"],
        params["seed"],
    )
    return data, k, m


class TestFsvRun:
    @given(params=_sizes, iterations=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pass_reference(self, params, iterations):
        data, k, m = _unpack(params)
        config = FsvConfig(
            iterations, k=k, fraction_range=pinning_window(m, data.n)
        )
        stream = RngStream(params["seed"], 1)
        _, scores = selftest._check_fsv_run(data, config, stream.clone())
        # and every statistic of the kernel's passes on that stream
        got = _run_passes(
            data, k, iterations, (stream,) * 3,
            fraction_range=config.fraction_range, holdout=True,
        )
        _hold_passes(data, got, scores)
        assert (got.m == m).all()

    def test_dataset_under_2k_points_runs(self):
        # n = 9 < 2k: every size the default window draws, 5 to 8,
        # trains k = 5 folds and leaves a holdout
        data = _dataset(9, 3.0, 2.0, 9)
        selftest._check_fsv_run(data, FsvConfig(40, k=5), RngStream(9, 1))

    # m: the size a window pins, or None for the default window
    @pytest.mark.parametrize("m", [None, 200])
    def test_metrics_is_the_alpha_scaled_table_of_its_passes(self, m):
        data = _dataset(300, 1e9, 1.0, 8)
        window = (0.6, 0.9) if m is None else pinning_window(m, data.n)
        config = FsvConfig(7, alpha=0.9, k=4, fraction_range=window)
        stream = RngStream(8, 1)
        passes = _run_passes(
            data,
            config.k,
            config.iterations,
            (stream.clone(),) * 3,
            fraction_range=config.fraction_range,
            holdout=True,
        )
        result = fsv_run(data, config, stream)
        want = config.alpha * metric_table(
            passes.sample_mean,
            passes.sample_var,
            passes.holdout_mse,
            data.true_mean,
            data.true_var,
            passes.fold_losses[:, 0],
        )
        table = result.metrics
        assert table.dtype == np.float64
        assert table.shape == (config.iterations, len(METRIC_FIELDS))
        assert not table.flags.writeable
        assert table.tobytes() == want.tobytes()
        rows = result.iteration_metrics
        assert rows == tuple(TrialMetrics._make(r) for r in table.tolist())
        assert all(type(row) is TrialMetrics for row in rows)


class TestRepeatedKfcv:
    @given(params=_sizes, repetitions=st.integers(1, 4), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pass_reference(self, params, repetitions, data):
        dataset, k, m = _unpack(params)
        raw = data.draw(
            st.lists(
                st.floats(min_value=0.1, max_value=2.0), min_size=k, max_size=k
            )
        )
        weights = LambdaWeights(np.array(raw) * k / math.fsum(raw))
        window = pinning_window(m, dataset.n)
        stream = RngStream(params["seed"], 4)
        _, scores = selftest._check_repeated_kfcv(
            dataset, repetitions, weights, stream.clone(), window
        )
        got = _run_passes(
            dataset, k, repetitions, (stream,) * 3,
            fraction_range=window, holdout=False,
        )
        _hold_passes(dataset, got, scores)
        assert (got.m == m).all()


class TestSampledKfoldTrial:
    @given(
        params=_sizes,
        split_streams=st.booleans(),
        whole=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pass_reference(self, params, split_streams, whole):
        data, k, m = _unpack(params)
        seed = params["seed"]
        if whole:
            # the window ((n - 0.4) / n, 1.0) draws all n points, so it
            # leaves no holdout and is refused before any draw
            scale = 10.0 ** params["log10_scale"]
            data = _dataset(m, params["mu"], scale, seed)

        fraction, main, folds = kernel = _triple(seed, split_streams)
        window = pinning_window(m, data.n)

        def run():
            return sampled_kfold_trial(
                data, k, main, folds_stream=folds, fraction_stream=fraction,
                fraction_range=window,
            )

        replay = _triple(seed, split_streams)
        if whole:
            with pytest.raises(ValidationError, match="leaves no holdout"):
                run()
        else:
            trial = run()
            _replay_draw(data.n, replay, window)
            # the trial is the kernel's one pass on those streams, which
            # holds every statistic to its exact value
            got, _ = _hold_to_exact_bound(
                data, k, 1, lambda: _triple(seed, split_streams), window, True
            )
            assert trial.m == got.m[0] == m
            for name in ("sample_mean", "sample_var", "holdout_mse"):
                assert getattr(trial, name) == getattr(got, name)[0], name
            assert trial.fold_losses.tobytes() == got.fold_losses[0].tobytes()
        for a, b in zip(kernel, replay):
            assert _streams_equal(a, b)


def test_one_point_holdout_at_the_subsample_mean():
    # the one holdout point a thousandth of sigma from the subsample
    # mean: its loss is about 1e-6 sigma**2, the dataset's M2 about
    # n sigma**2, and the loss's error about 1e8 of its ulps; the
    # holdout's rule in _hold_passes, ulps of M2 over the holdout's
    # size, covers it, and so does the derived bound
    n, m, k, seed = 301, 300, 5, 12
    window = pinning_window(m, n)
    values = 1e3 * np.random.default_rng(seed).standard_normal(n)
    _, inside = _replay_draw(n, _own_fraction(seed), window)
    values[np.setdiff1d(np.arange(n), inside)] = values[inside].mean() + 1.0
    data = Dataset(values, 0.0, 1e6)
    got, _ = _hold_to_exact_bound(
        data, k, 1, lambda: _own_fraction(seed), window, True
    )
    assert got.m[0] == m


def _widest_summable(n, factor):
    """n values alternating between -w/2 and w/2, w being ``factor``
    times the widest range ``errors._summable`` takes on n points, so
    that every centred sum the kernel takes is about as large as that
    range allows; and their variance, w**2 / 4."""
    half = factor * 32 * math.sqrt(_SUM_LIMIT / n)
    return np.where(np.arange(n) % 2, half, -half), half * half


def test_every_entry_point_stays_finite_just_inside_the_spread_rule():
    # RuntimeWarnings fail the suite, so an overflow anywhere fails here
    n, k = 2_000, 5
    values, var = _widest_summable(n, 1 - 1e-9)
    data = Dataset(values, 0.0, var)
    result = fsv_run(data, FsvConfig(5, k=k), RngStream(1, 1))
    assert np.isfinite(result.iteration_losses).all()
    assert np.isfinite(result.metrics).all()
    assert math.isfinite(result.compounded_measure)
    trial = one_stream_trial(data, k, RngStream(1, 2))
    assert np.isfinite(
        [trial.sample_mean, trial.sample_var, trial.holdout_mse]
    ).all()
    assert np.isfinite(trial.fold_losses).all()
    est = repeated_kfcv(data, 10, LambdaWeights.uniform(k), RngStream(1, 3))
    assert np.isfinite([est.mean_estimate, est.var_estimate, est.loss]).all()
    plan = make_folds(n, k, RngStream(1, 4))
    assert np.isfinite(kfold_losses(values, plan)).all()
    # just outside it, the dataset and kfold_losses' sample are refused
    wide, _ = _widest_summable(n, 1 + 1e-9)
    with pytest.raises(ValidationError, match="^values must span at most"):
        Dataset(wide, 0.0, var)
    with pytest.raises(ValidationError, match="^sample must span at most"):
        kfold_losses(wide, plan)


def _plant(monkeypatch, name, skew):
    """Skew one statistic of the kernel's statistics step by ``skew`` of
    itself, in every call that computes it."""
    combine = kfold._combine

    def skewed(*args, **kwargs):
        stats = combine(*args, **kwargs)
        value = getattr(stats, name)
        if value is None:  # no holdout asked for
            return stats
        return stats._replace(**{name: value * (1 + skew)})

    monkeypatch.setattr(kfold, "_combine", skewed)


def test_means_over_passes_stay_finite_where_their_entries_are():
    # RuntimeWarnings fail the suite: a plain mean of 50 training means
    # near 5e306 overflowed in its sum
    data = Dataset(np.full(200, 5e306), 5e306, 1.0)
    est = repeated_kfcv(data, 10, LambdaWeights.uniform(5), RngStream(1, 1))
    assert est.mean_estimate == 5e306
    # and so did L* and KFCV's averages over 400 passes of 20 points at
    # the spread rule's edge, whose losses reach 6e306
    values, var = _widest_summable(20, 1 - 1e-9)
    wide = Dataset(values, 0.0, var)
    result = fsv_run(wide, FsvConfig(400, k=2), RngStream(1, 1))
    assert math.isfinite(result.compounded_measure)
    assert math.isfinite(result.mean_iteration_loss)
    for weights in (LambdaWeights.uniform(2), LambdaWeights([2, 0, 1, 1, 1])):
        est = repeated_kfcv(wide, 400, weights, RngStream(1, 2))
        estimates = [est.mean_estimate, est.var_estimate, est.loss]
        assert np.isfinite(estimates).all()
    assert compound_measure(np.full(4, 1e308), 1.0) == 1e308


def test_reference_does_not_run_the_statistics_step(monkeypatch):
    # fold losses off by one part in a thousand: a reference that scored
    # its folds through the kernel's own statistics step would be off by
    # as much and would pass
    _plant(monkeypatch, "fold_losses", 1e-3)
    with pytest.raises(AssertionError):
        selftest._check_pass_kernel()


@pytest.mark.parametrize(
    "name, skew",
    [
        ("sample_mean", 1e-12),
        ("sample_var", 1e-12),
        ("train_means", 1e-12),
        ("train_vars", 1e-12),
        ("fold_losses", 1e-12),
        # the holdout's tightest bound at selftest's point (n = 300,
        # mu = 1e9, sigma = 1) is 1.88e-12 of its value
        ("holdout_mse", 1e-11),
    ],
)
def test_a_planted_fault_in_any_statistic_fails_the_selftest(
    monkeypatch, name, skew
):
    _plant(monkeypatch, name, skew)
    with pytest.raises(AssertionError, match="from its exact value"):
        selftest._check_pass_kernel()


def test_reference_does_not_share_the_subset_draw(monkeypatch):
    # the kernel's subset readback returning numpy's draw unsorted: the
    # subsample, and so every fold, holds other points than the sorted
    # draw gives. A reference that drew through the same function would
    # take the same points and pass
    def unsorted(n, m, generator):
        return generator.choice(n, size=m, replace=False, shuffle=False)

    monkeypatch.setattr(sampling, "_draw_subset", unsorted)
    monkeypatch.setattr(kfold, "_draw_subset", unsorted)
    with pytest.raises(AssertionError):
        selftest._check_pass_kernel()


@pytest.fixture
def scored_batches(monkeypatch):
    """The size of every buffer the pass kernel scores, in order."""
    scored = []
    fold_moments = kfold._fold_moments

    def recording(y, *args):
        scored.append(len(y))
        fold_moments(y, *args)

    monkeypatch.setattr(kfold, "_fold_moments", recording)
    return scored


def test_selftest_kernel_check_crosses_a_batch_boundary(scored_batches):
    # the built-in check, also run under python -O, must score a batch
    # in the middle of a call, not only at its end
    selftest._check_pass_kernel()
    assert len(scored_batches) >= 2
    assert all(size <= kfold._BATCH_FLOATS for size in scored_batches)


def test_holdout_from_totals_is_exact_at_large_mean():
    # at mu = 1e9 the spread sits 12 decimal digits below the mean; the
    # holdout's loss is also off by the rounding of the subtraction from
    # the totals: ulps of the dataset's M2 (about n sigma**2) over the
    # holdout's size
    n, m, k = 40, 29, 4
    data = _dataset(n, 1e9, 1e-3, 8)
    got, (score,) = _hold_to_exact_bound(
        data, k, 1, lambda: _own_fraction(8), pinning_window(m, n), True
    )
    assert got.m[0] == m
    slack = _m2_ulp(data) / (n - m)
    _assert_ulps("holdout", got.holdout_mse, score["holdout_mse"], 4, slack)
    (want, _), = score["sample_mean"]
    error = abs(Fraction(float(got.sample_mean[0])) - want)
    assert error <= Fraction(math.ulp(1e9))


def _hold_passes(data, got, scores):
    """The kernel's passes ``got`` against their exact ``scores``, whose
    replayed streams ended where the kernel's did: the same m, every
    statistic within its derived bound, and a holdout's loss also within
    64 ulps of itself plus 64 ulps of the dataset's M2 over the
    holdout's size. The derived bound's terms for a small holdout grow
    as n**2 / h and exceed that rule there."""
    m2_ulp = _m2_ulp(data)
    for p, score in enumerate(scores):
        assert got.m[p] == score["m"]
        for name in score.keys() & _STATISTICS:
            _held(f"pass {p} {name}", getattr(got, name)[p], score[name])
        if holdout := score.get("holdout_mse"):
            slack = m2_ulp / (data.n - score["m"])
            _assert_ulps("holdout", got.holdout_mse[p], holdout, 64, slack)


def _hold_to_exact_bound(data, k, passes, streams, window, holdout):
    """``_run_passes`` on the (fraction, subset, folds) triple that
    ``streams()`` builds afresh, held by :func:`_hold_passes`; the draws
    are replayed on a second triple, which must end in the same state.
    Returns the kernel's passes and their exact scores."""
    kernel = streams()
    got = _run_passes(
        data, k, passes, kernel, fraction_range=window, holdout=holdout
    )
    scores = selftest._replayed_scores(
        data, k, passes, window, kernel, streams(), holdout=holdout
    )
    _hold_passes(data, got, scores)
    return got, scores


def test_every_statistic_is_exact_to_a_few_ulps_across_batches(
    scored_batches,
):
    # every output of _Passes against exact rational arithmetic on the
    # stored doubles, at mu = 1e9 and sigma = 1e-3, over 80 passes of
    # 180 to 270 points that fill the buffer more than once
    n, k, passes = 300, 5, 80
    data = _dataset(n, 1e9, 1e-3, 3)
    got, scores = _hold_to_exact_bound(
        data, k, passes, lambda: (RngStream(3, 1),) * 3,
        sampling.FRACTION_RANGE, True,
    )
    assert len(scored_batches) >= 3
    # the worst measured, over 10 seeds of this case, is 4.5 ulps; the
    # holdout, as in the test above, may also be off by ulps of the
    # dataset's M2 over the holdout's size
    m2_ulp = _m2_ulp(data)
    for p, score in enumerate(scores):
        for name in _STATISTICS:
            slack = m2_ulp / (n - got.m[p]) if name == "holdout_mse" else 0
            _assert_ulps(name, getattr(got, name)[p], score[name], 8, slack)


def _sorted_draw_passes(data, k, passes, streams, window, holdout):
    """``_run_passes`` on the sort-and-gather draw path, one pass at a
    time: ``selftest._replay_draw`` on the (fraction, subset, folds)
    triple ``streams``, then ``values`` at those indices into the same
    ``_fold_moments``, then all passes into ``_combine``."""
    values = data.values
    pilot = values[0]
    counts, sums, m2s = (np.empty((passes, k)) for _ in range(3))
    for p in range(passes):
        _, order = _replay_draw(data.n, streams, window)
        sizes = [len(fold) for fold in np.array_split(order, k)]
        counts[p] = sizes
        _fold_moments(values[order], sizes, pilot, sums[p], m2s[p])
    return _combine(counts, sums, m2s, pilot, data if holdout else None)


def _compare_with_sorted_draw_path(
    data, k, passes, seed, window, split_streams, holdout
):
    """``_run_passes`` against :func:`_sorted_draw_passes` on the same
    streams: every output bit for bit, every stream left in step.
    Returns the kernel's passes."""
    kernel, replay = (_triple(seed, split_streams) for _ in range(2))
    got = _run_passes(
        data, k, passes, kernel, fraction_range=window, holdout=holdout
    )
    want = _sorted_draw_passes(data, k, passes, replay, window, holdout)
    for name in got._fields:  # holdout_mse may be None in both
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for a, b in zip(kernel, replay):
        assert _streams_equal(a, b)
    return got


# n, k, passes, window, split_streams, holdout
_BATCH_CASES = {
    # subsamples of 3 000 to 4 500 points: the buffer of 8 192 floats
    # holds at most two, so one call fills it several times
    "buffer-refilled": (5_000, 5, 8, (0.6, 0.9), False, True),
    # each pass alone exceeds 8 192 points and is scored on its own
    "pinned-pass-over-the-bound": (
        12_000, 5, 3, pinning_window(9_000, 12_000), True, True
    ),
    "drawn-passes-over-the-bound": (12_000, 7, 3, (0.7, 0.9), True, False),
    # 2 000 to 12 000 points: some batches hold one pass, some several
    "mixed-batches": (20_000, 4, 6, (0.1, 0.6), False, True),
}


class TestDrawStep:
    @given(
        k=st.integers(min_value=2, max_value=10),
        n=st.one_of(
            st.integers(min_value=20, max_value=400),
            st.sampled_from([5_000, 12_000]),
        ),
        share=st.floats(min_value=0.0, max_value=1.0),
        mu=st.floats(min_value=-1e9, max_value=1e9),
        log10_scale=st.floats(min_value=-3.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**31),
        passes=st.integers(min_value=1, max_value=4),
        pinned=st.booleans(),
        split_streams=st.booleans(),
        holdout=st.booleans(),
    )
    @example(
        k=5, n=12_000, share=0.5, mu=1e9, log10_scale=-3.0, seed=3,
        passes=2, pinned=False, split_streams=True, holdout=True,
    )
    @example(
        k=5, n=12_000, share=0.01, mu=1e9, log10_scale=-3.0, seed=3,
        passes=2, pinned=True, split_streams=False, holdout=True,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_sorted_draw_path_bit_for_bit(
        self, k, n, share, mu, log10_scale, seed, passes, pinned,
        split_streams, holdout,
    ):
        data = _dataset(n, mu, 10.0**log10_scale, seed)
        if pinned:
            # a window that pins m anywhere from k to n, the whole
            # dataset included unless a holdout is scored
            m = k + int(share * (n - k - holdout))
            assume(_trainable(m, k))
            window = pinning_window(m, n)
        else:
            # n >= 20 and low >= 0.5 keep every draw trainable for k <= 10;
            # a scored holdout keeps every draw under n
            low = 0.5 + 0.4 * share
            top = (n - 0.6) / n if holdout else 1.0
            window = (low, min(low + 0.2, top))
        got = _compare_with_sorted_draw_path(
            data, k, passes, seed, window, split_streams, holdout
        )
        if pinned:
            assert (got.m == m).all()

    @pytest.mark.parametrize("case", sorted(_BATCH_CASES))
    def test_batch_boundaries_bit_for_bit(self, case, scored_batches):
        n, k, passes, window, split, holdout = _BATCH_CASES[case]
        data = _dataset(n, 1e9, 1e-3, 11)
        got = _compare_with_sorted_draw_path(
            data, k, passes, 11, window, split, holdout
        )
        # the buffer is scored only when the next pass would not fit
        _, m_hi = _subsample_range(n, k, window)
        bound = max(m_hi, kfold._BATCH_FLOATS)
        want, used = [], 0
        for m in got.m.tolist():
            if used + m > bound:
                want.append(used)
                used = 0
            used += m
        assert scored_batches == [*want, used]
        assert len(scored_batches) >= 3


def _plan_stats(sample, plan):
    """Fold losses, training means and ddof=1 training variances of one
    plan, by name: ``plan.order`` into ``_fold_moments`` and then
    ``_combine``, as :func:`_sorted_draw_passes` scores a pass. The losses
    must be ``kfold_losses``' bit for bit."""
    y = sample[plan.order]
    pilot = y[0]
    sizes = [len(f) for f in plan.folds]
    sums, m2s = np.empty((2, 1, plan.k))
    _fold_moments(y, sizes, pilot, sums[0], m2s[0])
    stats = _combine(np.array([sizes], dtype=np.float64), sums, m2s, pilot)
    assert np.array_equal(stats.fold_losses[0], kfold_losses(sample, plan))
    names = ("fold_losses", "train_means", "train_vars")
    return {name: getattr(stats, name)[0] for name in names}


def _plan_score(sample, plan):
    """The exact scores of one plan's pass: the sample taken in fold
    order, its first value the pilot, as :func:`_plan_stats` takes it."""
    data = Dataset(sample[plan.order], float(sample[0]), 1.0)
    draw = (1.0, np.arange(plan.total))
    (score,) = _exact_scores(data, plan.k, [draw], holdout=False)
    return score


class TestComplement:
    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e3), min_size=2,
            max_size=200,
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_a_direct_sum_of_the_rest(self, values, data):
        y = np.array(values)
        n = len(y)
        in_part = np.array(
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        )
        assume(0 < in_part.sum() < n)

        def moments(x):
            dev = x - x.mean()
            return float(len(x)), x.sum(), (dev * dev).sum()

        part, whole, rest = (moments(x) for x in (y[in_part], y, y[~in_part]))
        got_n, got_mean, got_m2, got_gap2 = _complement(
            *(np.array([v]) for v in part), *whole
        )
        rest_mean = rest[1] / rest[0]
        gap = part[1] / part[0] - rest_mean
        # rounding of sums near max|y|, and of M2s near n max|y|**2
        scale = np.abs(y).max() + 1.0
        mean_tol = 1e-12 * n * scale
        m2_tol = 1e-12 * n * scale * scale
        assert got_n[0] == rest[0]
        assert abs(got_mean[0] - rest_mean) <= mean_tol
        assert abs(got_m2[0] - rest[2]) <= m2_tol
        assert abs(got_gap2[0] - gap * gap) <= m2_tol
        assert got_m2[0] >= 0


class TestFoldKernel:
    @given(
        k=st.integers(min_value=2, max_value=10),
        extra=st.one_of(
            st.sampled_from([0, 1]), st.integers(min_value=2, max_value=300)
        ),
        mu=st.floats(min_value=-1e9, max_value=1e9),
        log10_scale=st.floats(min_value=-3.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_fold_fit_and_loss(
        self, k, extra, mu, log10_scale, seed
    ):
        m = k + extra
        rng = np.random.default_rng(seed)
        sample = mu + 10.0**log10_scale * rng.standard_normal(m)
        plan = make_folds(m, k, RngStream(seed, 0))
        if m - math.ceil(m / k) < 2:
            # the largest fold leaves fewer than 2 training points
            with pytest.raises(ValidationError):
                kfold_losses(sample, plan)
            return
        score = _plan_score(sample, plan)
        for name, values in _plan_stats(sample, plan).items():
            _held(name, values, score[name])

    @pytest.mark.parametrize("seed", range(4))
    def test_the_exact_scores_are_fit_and_loss(self, seed):
        # the scorer's formulas are the model's: fit on the subsample and
        # on each fold's training complement, loss on the holdout and on
        # each fold; at mu near sigma these round by a few ulps
        n, m, k = 60, 45, 4
        data = _dataset(n, 3.0, 2.0, seed)
        order = np.random.default_rng(seed).permutation(n)[:m]
        sample = data.values[order]
        folds = np.array_split(np.arange(m), k)
        whole = fit(sample)
        trains = [fit(np.delete(sample, fold)) for fold in folds]
        got = {
            "sample_mean": whole.fitted_mean,
            "sample_var": whole.fitted_var,
            "holdout_mse": loss(whole, np.delete(data.values, order)),
            "train_means": [train.fitted_mean for train in trains],
            "train_vars": [train.fitted_var for train in trains],
            "fold_losses": [
                loss(train, sample[fold]) for train, fold in zip(trains, folds)
            ],
        }
        (score,) = _exact_scores(data, k, [(m / n, order)])
        assert score["m"] == m
        for name in _STATISTICS:
            _assert_ulps(name, got[name], score[name], 4)

    def test_exact_at_large_mean(self):
        # at mu = 1e9 the spread sits 12 decimal digits below the mean
        m, k = 23, 4
        noise = derive_stream(5, 0, 0).generator.standard_normal(m)
        sample = 1e9 + 1e-3 * noise
        plan = make_folds(m, k, RngStream(5, 1))
        score = _plan_score(sample, plan)
        for name, values in _plan_stats(sample, plan).items():
            _assert_ulps(name, values, score[name], 4)


class _StubGenerator:
    """A stream's generator whose ``method`` draw is passed through
    ``corrupt(draw, bound)``, bound being the draw's first argument (n
    for ``choice``, m for ``permutation``); every other method is the
    real generator's."""

    def __init__(self, real, method, corrupt):
        self._real = real
        draw = getattr(real, method)

        def corrupted(bound, *args, **kwargs):
            return corrupt(draw(bound, *args, **kwargs), bound)

        setattr(self, method, corrupted)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _repeat_inside(d, bound):
    """Value 1 replaced by 2: a repeat that keeps min 0 and max bound-1."""
    return np.where(d == 1, 2, d)


def _negative_wrapping_to_unused(d, bound):
    """The smallest index replaced by a negative one that wraps around
    to an index not drawn, so only the lower-bound check can see it."""
    unused = np.setdiff1d(np.arange(bound), d)[0]
    return np.where(d == d.min(), unused - bound, d)


_BAD_DRAWS = {
    "choice-repeat": ("choice", lambda d, n: np.r_[d[:-1], d[0]]),
    "choice-n": ("choice", lambda d, n: np.where(d == d.max(), n, d)),
    "choice-negative": ("choice", _negative_wrapping_to_unused),
    "choice-short": ("choice", lambda d, n: d[:-1]),
    "choice-floats": ("choice", lambda d, n: d.astype(np.float64)),
    "permutation-repeat": ("permutation", _repeat_inside),
    "permutation-m": ("permutation", lambda d, m: np.where(d == m - 1, m, d)),
    # a permutation of range(m - 1): only the length check can see it
    "permutation-short": ("permutation", lambda d, m: d[d != m - 1]),
    "permutation-floats": ("permutation", lambda d, m: d.astype(np.float64)),
}


def _stub_stream(case):
    """``RngStream(6, 1)`` with its generator's draw corrupted as the
    ``_BAD_DRAWS`` case says."""
    stream = RngStream(6, 1)
    stub = _StubGenerator(stream.generator, *_BAD_DRAWS[case])
    object.__setattr__(stream, "generator", stub)
    return stream


@pytest.mark.parametrize("case", sorted(_BAD_DRAWS))
def test_bad_draws_are_rejected(case):
    method, _ = _BAD_DRAWS[case]
    n, k = 50, 5
    data = _dataset(n, 0.0, 1.0, 6)
    # of n = 50 points, m = 10 is under a third, so its draw is sorted,
    # and m = 30 is masked; the mask is also checked at n = 2 000 below
    for m in (10, 30):
        window = pinning_window(m, n)
        with pytest.raises(ValidationError):
            if method == "choice":
                srs_sample(data, m, _stub_stream(case))
            else:
                make_folds(m, k, _stub_stream(case))
        if method == "choice":
            # the kernel shares srs_sample's checks; its fraction comes
            # from a real stream of its own
            stub = _stub_stream(case)
            with pytest.raises(ValidationError):
                _run_passes(
                    data, k, 2, (RngStream(6, 2), stub, stub),
                    fraction_range=window,
                )
            with pytest.raises(ValidationError):
                fsv_run(
                    data, FsvConfig(2, k=k, fraction_range=window),
                    _stub_stream(case),
                )
            continue
        # the kernel shuffles the subsample and never calls permutation,
        # so a corrupt one changes neither its output nor its stream
        stub, real = _stub_stream(case), RngStream(6, 1)
        got = _run_passes(
            data, k, 2, (RngStream(6, 2), stub, stub),
            fraction_range=window, holdout=True,
        )
        want = _run_passes(
            data, k, 2, (RngStream(6, 2), real, real),
            fraction_range=window, holdout=True,
        )
        for name in got._fields:
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a, b), name
        assert _streams_equal(stub, real)
        config = FsvConfig(2, k=k, fraction_range=window)
        stub, real = _stub_stream(case), RngStream(6, 1)
        got, want = fsv_run(data, config, stub), fsv_run(data, config, real)
        assert got.compounded_measure == want.compounded_measure
        assert np.array_equal(got.iteration_losses, want.iteration_losses)
        assert np.array_equal(got.metrics, want.metrics)
        assert _streams_equal(stub, real)


@pytest.mark.parametrize(
    "case", sorted(c for c in _BAD_DRAWS if c.startswith("choice"))
)
def test_bad_draws_are_rejected_by_the_mask_branch(case):
    n, k, m = 2_000, 5, 1_500
    data = _dataset(n, 0.0, 1.0, 6)
    with pytest.raises(ValidationError):
        srs_sample(data, m, _stub_stream(case))
    stub = _stub_stream(case)
    with pytest.raises(ValidationError):
        _run_passes(
            data, k, 2, (RngStream(6, 2), stub, stub),
            fraction_range=pinning_window(m, n),
        )


@pytest.mark.parametrize(
    "case, got",
    [
        pytest.param("choice-short", "int64 of shape (9,)", id="short"),
        pytest.param("choice-floats", "float64 of shape (10,)", id="floats"),
    ],
)
def test_a_subset_draw_is_refused_by_the_vector_rule(case, got):
    want = f"subset draw must be a vector of integers of length 10, got {got}"
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}$"):
        srs_sample(_dataset(50, 0.0, 1.0, 6), 10, _stub_stream(case))


# each public draw, and the plain numpy call the draw contract says it is
_PUBLIC_DRAWS = {
    "make_folds": (
        lambda s: make_folds(37, 4, s).order, lambda g: g.permutation(37)
    ),
    "draw_partition_fraction": (
        lambda s: draw_partition_fraction(s, 0.6, 0.9),
        lambda g: g.uniform(0.6, 0.9),
    ),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("draw", sorted(_PUBLIC_DRAWS))
def test_a_public_draw_is_its_numpy_call(draw, seed):
    # the kernel draws as a loop over the public API would; srs_sample's
    # subset has its own pin, in test_sampling
    public, plain = _PUBLIC_DRAWS[draw]
    stream = RngStream(seed, 1)
    clone = stream.clone()
    assert np.array_equal(public(stream), plain(clone.generator))
    assert _streams_equal(stream, clone)


@pytest.mark.parametrize("m", [1, 2, 5, 1_500, 75_000])
def test_numpy_shuffle_makes_permutations_swaps(m):
    # the kernel relies on this: shuffling a vector in place orders it as
    # taking it by permutation(len) would, and leaves the stream in the
    # same state
    z = np.random.default_rng(m).standard_normal(m)
    g1, g2 = np.random.default_rng(7), np.random.default_rng(7)
    y = z.copy()
    g1.shuffle(y)
    assert np.array_equal(y, z.take(g2.permutation(m)))
    assert g1.bit_generator.state == g2.bit_generator.state


@pytest.mark.parametrize("m", [1, 2, 5, 1_500, 9_000])
def test_numpy_shuffles_a_buffer_slice_as_a_fresh_array(m):
    # the kernel shuffles each subsample as a contiguous slice of one
    # larger buffer: the same order and the same stream state as a
    # shuffle of a fresh array
    z = np.random.default_rng(m).standard_normal(m)
    buffer = np.full(m + 20, np.nan)
    segment = buffer[7:7 + m]
    segment[:] = z
    fresh = z.copy()
    g1, g2 = np.random.default_rng(7), np.random.default_rng(7)
    g1.shuffle(segment)
    g2.shuffle(fresh)
    assert np.array_equal(segment, fresh)
    assert g1.bit_generator.state == g2.bit_generator.state
    # and nothing outside the slice moves
    assert np.isnan(buffer[:7]).all() and np.isnan(buffer[7 + m:]).all()


def test_numpy_take_into_a_slice_with_clip_equals_take():
    # the kernel gathers with take(out=, mode="clip"): for indices in
    # range it is the plain gather
    values = np.random.default_rng(3).standard_normal(1_000)
    idx = np.random.default_rng(4).choice(1_000, 600, replace=False)
    idx = np.r_[idx, 0, 999]
    buffer = np.full(700, np.nan)
    segment = buffer[50:50 + len(idx)]
    values.take(idx, out=segment, mode="clip")
    assert np.array_equal(segment, values.take(idx))
    assert np.isnan(buffer[:50]).all() and np.isnan(buffer[652:]).all()


def test_single_fold_is_rejected_before_drawing():
    data = _dataset(50, 0.0, 1.0, 6)
    stream = RngStream(6, 1)
    before = stream.generator.bit_generator.state
    with pytest.raises(ValidationError, match="k must be >= 2"):
        repeated_kfcv(data, 2, LambdaWeights.uniform(1), stream)
    assert stream.generator.bit_generator.state == before


@pytest.mark.parametrize(
    "k, message",
    [(1, "k must be >= 2, got 1"), (5.5, "k must be an integer, got 5.5")],
)
def test_the_kernel_refuses_a_bad_k_before_drawing(k, message):
    # the fold-count rule is the kernel's own, so it holds for a caller
    # that checks nothing
    data = _dataset(50, 0.0, 1.0, 6)
    stream = RngStream(6, 1)
    before = stream.generator.bit_generator.state
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _run_passes(data, k, 2, (stream,) * 3, holdout=True)
    assert stream.generator.bit_generator.state == before


# each strategy on a window, with k folds and, for KFCV, 3 repetitions
_ON_WINDOW = {
    "repeated_kfcv": lambda data, k, s, window: repeated_kfcv(
        data, 3, LambdaWeights.uniform(k), s, fraction_range=window
    ),
    "sampled_kfold_trial": lambda data, k, s, window: one_stream_trial(
        data, k, s, fraction_range=window
    ),
}


@pytest.mark.parametrize("window", [(0.6,), (0.6, 0.7, 0.8)])
@pytest.mark.parametrize("kernel", sorted(_ON_WINDOW))
def test_malformed_window_is_rejected_before_drawing(kernel, window):
    data = _dataset(50, 0.0, 1.0, 6)
    stream = RngStream(6, 1)
    before = stream.generator.bit_generator.state
    with pytest.raises(ValidationError, match="fraction_range"):
        _ON_WINDOW[kernel](data, 5, stream, window)
    assert stream.generator.bit_generator.state == before


@pytest.mark.parametrize("kernel", sorted(_ON_WINDOW))
def test_window_too_low_for_n_is_rejected_before_drawing(kernel):
    # round(0.2 * 10) = 2 points cannot train both folds of k = 2, but
    # most draws from the window can: the call must fail on every seed,
    # not only where a pass happens to draw a small size
    data = _dataset(10, 0.0, 1.0, 6)
    for seed in range(60):
        stream = RngStream(seed, 1)
        before = stream.generator.bit_generator.state
        with pytest.raises(ValidationError, match="^fraction_range"):
            _ON_WINDOW[kernel](data, 2, stream, (0.2, 0.9))
        assert stream.generator.bit_generator.state == before


_BAD_SIZE_CALLS = {
    # a window that pins a size whose folds cannot train: 3 points in 2
    "untrainable-sample_size": (
        "fraction_range",
        lambda data, s: one_stream_trial(
            data, 2, s, fraction_range=pinning_window(3, data.n)
        ),
    ),
    "fractional-k-trial": (
        "k", lambda data, s: one_stream_trial(data, 5.5, s)
    ),
    "fractional-repetitions": (
        "repetitions",
        lambda data, s: repeated_kfcv(
            data, 2.5, LambdaWeights.uniform(5), s
        ),
    ),
    # the per-step functions follow the same integral rule
    "fractional-n-dataset": (
        "n", lambda data, s: generate_dataset(10.5, 0.0, 1.0, s)
    ),
    "string-n-dataset": (
        "n", lambda data, s: generate_dataset("10", 0.0, 1.0, s)
    ),
    "bool-n-dataset": (
        "n", lambda data, s: generate_dataset(True, 0.0, 1.0, s)
    ),
    "fractional-m-srs": ("m", lambda data, s: srs_sample(data, 5.5, s)),
    "fractional-sample_size-folds": (
        "sample_size", lambda data, s: make_folds(10.5, 2, s)
    ),
    "fractional-k-folds": ("k", lambda data, s: make_folds(10, 2.5, s)),
    "fractional-k-plan": ("k", lambda data, s: FoldPlan(np.arange(4), 2.5)),
    # and the stream addresses and draw count, a bool not taken as 0 or 1
    "fractional-seed": ("seed", lambda data, s: RngStream(4.5, 0)),
    "bool-seed": ("seed", lambda data, s: RngStream(True, 0)),
    "fractional-stream_id": ("stream_id", lambda data, s: RngStream(4, 0.5)),
    "bool-stream_id": ("stream_id", lambda data, s: RngStream(4, True)),
    "fractional-trial_index": (
        "trial_index", lambda data, s: derive_stream(42, 2.5, 1)
    ),
    "bool-trial_index": (
        "trial_index", lambda data, s: derive_stream(42, True, 1)
    ),
    "fractional-purpose_tag": (
        "purpose_tag", lambda data, s: derive_stream(42, 0, 1.5)
    ),
    "bool-purpose_tag": (
        "purpose_tag", lambda data, s: derive_stream(1, 0, True)
    ),
    "fractional-count": ("count", lambda data, s: standard_normal(s, 2.5)),
    "bool-count": ("count", lambda data, s: standard_normal(s, True)),
    # a real argument refuses a non-number and a non-finite value by name
    "string-alpha-compound": (
        "alpha", lambda data, s: compound_measure([1.0], "0.9")
    ),
    "infinite-alpha-compound": (
        "alpha", lambda data, s: compound_measure([1.0], math.inf)
    ),
    "string-k_dev": ("k_dev", lambda data, s: chebyshev_tail("2")),
    "string-sigma_hyb2": (
        "sigma_hyb2", lambda data, s: chebyshev_threshold("1", 2, 1.0)
    ),
    "infinite-sigma_hyb2": (
        "sigma_hyb2", lambda data, s: chebyshev_threshold(math.inf, 2, 1.0)
    ),
    "string-srs_component": (
        "srs_component", lambda data, s: VarianceBudget("1", 0.1, 3)
    ),
    "infinite-epsilon": (
        "epsilon", lambda data, s: hoeffding_tail(math.inf, 2, 0.0, 1.0)
    ),
    "infinite-b": (
        "b", lambda data, s: hoeffding_tail(0.1, 2, 0.0, math.inf)
    ),
    "string-mu-dataset": (
        "mu", lambda data, s: generate_dataset(3, "0", 1.0, s)
    ),
    "string-true_mean": (
        "true_mean",
        lambda data, s: metric_table(0.0, 1.0, 1.0, "0", 1.0, 1.0),
    ),
    "infinite-true_var": (
        "true_var",
        lambda data, s: metric_table(0.0, 1.0, 1.0, 0.0, math.inf, 1.0),
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_SIZE_CALLS))
def test_bad_size_is_rejected_by_name_before_drawing(case):
    name, call = _BAD_SIZE_CALLS[case]
    data = _dataset(50, 0.0, 1.0, 6)
    stream = RngStream(6, 1)
    before = stream.generator.bit_generator.state
    with pytest.raises(ValidationError, match=f"^{name} "):
        call(data, stream)
    assert stream.generator.bit_generator.state == before


def test_integral_float_sizes_are_taken_as_ints():
    data = _dataset(50, 0.0, 1.0, 6)
    trial = one_stream_trial(data, 5.0, RngStream(6, 1))
    want = one_stream_trial(data, 5, RngStream(6, 1))
    assert trial.m == want.m
    assert np.array_equal(trial.fold_losses, want.fold_losses)
    weights = LambdaWeights.uniform(5)
    est = repeated_kfcv(data, 2.0, weights, RngStream(6, 1))
    assert est == repeated_kfcv(data, 2, weights, RngStream(6, 1))
    # and the per-step functions
    drawn = generate_dataset(50.0, 0.0, 1.0, RngStream(6, 2))
    assert np.array_equal(
        drawn.values, generate_dataset(50, 0.0, 1.0, RngStream(6, 2)).values
    )
    view = srs_sample(data, 5.0, RngStream(6, 3))
    assert len(view.indices) == 5
    assert np.array_equal(
        view.indices, srs_sample(data, 5, RngStream(6, 3)).indices
    )
    plan = make_folds(10.0, 2.0, RngStream(6, 4))
    assert type(plan.k) is int and plan.total == 10
    assert np.array_equal(plan.order, make_folds(10, 2, RngStream(6, 4)).order)
    assert type(FoldPlan(np.arange(4), 2.0).k) is int


@given(
    n=st.integers(min_value=2, max_value=300),
    k=st.integers(min_value=2, max_value=10),
    low=st.floats(min_value=1e-3, max_value=1.0),
    width=st.floats(min_value=1e-3, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=200, deadline=None)
def test_every_drawn_size_lies_in_the_checked_range(n, k, low, width, seed):
    high = min(low + width, 1.0)
    assume(low < high)
    data = _dataset(n, 0.0, 1.0, seed)
    stream = RngStream(seed, 1)
    before = stream.generator.bit_generator.state
    try:
        m_lo, m_hi = _subsample_range(n, k, (low, high))
    except ValidationError:
        # a range the helper refuses is refused before any draw
        with pytest.raises(ValidationError, match="^fraction_range"):
            _run_passes(data, k, 8, (stream,) * 3, fraction_range=(low, high))
        assert stream.generator.bit_generator.state == before
        return
    passes = _run_passes(
        data, k, 8, (stream,) * 3, fraction_range=(low, high)
    )
    assert ((m_lo <= passes.m) & (passes.m <= m_hi)).all()
    assert all(_trainable(int(m), k) for m in passes.m)


@given(
    k=st.integers(min_value=2, max_value=10),
    n=st.integers(min_value=4, max_value=100_000),
    share=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(k=2, n=4, share=1.0, seed=0)
@example(k=10, n=100_000, share=1.0, seed=0)
@settings(max_examples=200, deadline=None)
def test_pinning_window_pins_every_size(k, n, share, seed):
    # the tests pin a subsample's size by this window alone: for every
    # 2k <= m <= n, the whole dataset included, it admits m and only m
    assume(2 * k <= n)
    m = 2 * k + int(share * (n - 2 * k))
    window = pinning_window(m, n)
    assert _subsample_range(n, k, window) == (m, m)
    data = _dataset(n, 0.0, 1.0, seed)
    passes = _run_passes(
        data, k, 2, (RngStream(seed, 1),) * 3, fraction_range=window
    )
    assert passes.m.tolist() == [m, m]
