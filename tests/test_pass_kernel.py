"""The batched pass kernel against references kept in this file.

``fsv_run``, ``repeated_kfcv`` and ``sampled_kfold_trial`` run on
``kfold._run_passes``. Per pass it makes ``srs_sample``'s subset draw,
with the same checks, takes the subsample in index order and shuffles
it in place on the stream ``make_folds`` would draw its permutation
from; numpy's ``permutation(m)`` is the same shuffle of ``arange(m)``,
so the subsample lands in ``make_folds``' fold order. One statistics
step then scores the whole batch.

Two references check it. ``TestDrawStep`` replays the sort-and-gather
draw path through ``SampleView`` and ``make_folds``' permutation into
the same statistics step and requires every output bit for bit. The
per-pass reference replays the same draws on clones of the streams and
scores each pass on its own: ``fit`` on the subsample,
``holdout_values`` + ``loss`` on the rest, ``kfold_losses`` on the
folds and ``fit`` on each fold's training complement. After every call
the streams must stand exactly where the reference left them.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fusionval.data import Dataset
from fusionval.errors import ValidationError
from fusionval.estimator import fit, loss
from fusionval.fsv import FsvConfig, fsv_run, sampled_kfold_trial
from fusionval.kfold import (
    LambdaWeights,
    _combine,
    _fold_moments,
    _run_passes,
    _subsample_range,
    _trainable,
    kfold_losses,
    make_folds,
    repeated_kfcv,
)
from fusionval.metrics import METRIC_FIELDS, TrialMetrics, metric_table
from fusionval.rng import RngStream
from fusionval.sampling import (
    SampleView,
    draw_partition_fraction,
    holdout_values,
    sample_values,
    srs_sample,
)


def _dataset(n, mu, scale, seed):
    values = mu + scale * np.random.default_rng(seed).standard_normal(n)
    return Dataset(
        values=values,
        n=n,
        true_mean=mu,
        true_var=scale * scale,
        seed=seed,
        stream_id=0,
    )


def _reference_pass(
    data, k, stream, folds_stream, fraction_stream, sample_size, fraction_range
):
    """One pass scored on its own, drawing as the kernel must."""
    fraction = None
    if sample_size is None:
        fraction = draw_partition_fraction(fraction_stream, *fraction_range)
        m = int(round(fraction * data.n))
    else:
        m = sample_size
    view = srs_sample(data, m, stream)
    sample = sample_values(data, view)
    params = fit(sample)
    rest = holdout_values(data, view)
    plan = make_folds(m, k, folds_stream)
    train = [fit(np.delete(sample, fold)) for fold in plan.folds]
    return {
        "fraction": fraction,
        "m": m,
        "mean": params.fitted_mean,
        "var": params.fitted_var,
        "holdout": loss(params, rest) if len(rest) else None,
        "fold_losses": kfold_losses(sample, plan),
        "train_means": np.array([t.fitted_mean for t in train]),
        "train_vars": np.array([t.fitted_var for t in train]),
    }


class _Tolerance:
    """The rule of ``test_kfold.TestFoldKernel``: relative 1e-9 plus 64
    ulps of the data's magnitude, and for squared quantities the shift
    that slack in a fitted mean causes, 2 sqrt(value) slack + slack**2.

    One term is added for the holdout loss, which the kernel takes from
    the dataset's totals minus the subsample's: that difference is
    rounded to ulps of the dataset's centred sum of squares M2, so the
    loss of a holdout of n_h points may be off by 64 ulps of M2 / n_h.
    Without it a holdout of one point whose value lies within about 1e-2
    standard deviations of the subsample mean fails the relative test
    (the loss is near 0 while M2 is about n sigma**2).
    """

    def __init__(self, data):
        self.slack = 64 * math.ulp(float(np.abs(data.values).max()))
        dev = data.values - data.values.mean()
        self.data_m2 = float((dev * dev).sum())

    def of(self, want, squared):
        size = abs(want)
        tol = 1e-9 * size + self.slack
        if squared:
            tol += self.slack * (2 * math.sqrt(size) + self.slack)
        return tol

    def holdout(self, want, rest):
        return self.of(want, True) + 64 * math.ulp(self.data_m2) / rest

    def mean_of(self, wants, squared, weights=None):
        """Tolerance of an average: the average of the tolerances."""
        tols = np.array([self.of(w, squared) for w in np.ravel(wants)])
        if weights is not None:
            tols = tols * np.ravel(weights)
        return float(tols.mean())


def _assert_close(got, want, tol, label):
    assert abs(got - want) <= tol, (
        f"{label}: {got!r} != {want!r} (tol {tol:.2g})"
    )


def _streams_equal(a, b):
    return a.generator.bit_generator.state == b.generator.bit_generator.state


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


def _pinning_window(m, n):
    """A fraction window whose every draw rounds to m of n points."""
    return ((m - 0.4) / n, (m + 0.4) / n)


def _check_fsv_run(data, config, seed):
    """``fsv_run`` against the per-pass reference, iteration by iteration."""
    k, alpha = config.k, config.alpha
    stream, ref_stream = RngStream(seed, 1), RngStream(seed, 1)
    result = fsv_run(data, config, stream)
    tol = _Tolerance(data)
    rows = result.iteration_metrics
    for t in range(config.iterations):
        ref = _reference_pass(
            data, k, ref_stream, ref_stream, ref_stream,
            config.sample_size, config.fraction_range,
        )
        losses = ref["fold_losses"]
        _assert_close(
            result.iteration_losses[t],
            float(np.mean(losses)),
            tol.mean_of(losses, True),
            f"iteration {t} loss",
        )
        raw = {
            "mean_est": ref["mean"],
            "var_est": ref["var"],
            "mse": ref["holdout"],
            "bias": abs(losses[0] - data.true_var),
            "roc_me": abs(ref["mean"] - data.true_mean),
            "roc_ve": abs(ref["var"] - data.true_var),
        }
        # an absolute difference inherits the error of what it
        # subtracts from: the fold loss, the mean, the variance
        tols = {
            "mean_est": tol.of(ref["mean"], False),
            "var_est": tol.of(ref["var"], True),
            "mse": tol.holdout(ref["holdout"], data.n - ref["m"]),
            "bias": tol.of(losses[0], True),
            "roc_me": tol.of(raw["roc_me"], False),
            "roc_ve": tol.of(ref["var"], True),
        }
        row = rows[t]
        for field in METRIC_FIELDS:
            _assert_close(
                getattr(row, field),
                alpha * raw[field],
                tols[field] + math.ulp(alpha * raw[field]),
                f"iteration {t} {field}",
            )
    assert _streams_equal(stream, ref_stream)


class TestFsvRun:
    @given(params=_sizes, iterations=st.integers(1, 4), pinned=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pass_reference(self, params, iterations, pinned):
        data, k, m = _unpack(params)
        if pinned:
            config = FsvConfig(iterations, k=k, sample_size=m)
        else:
            config = FsvConfig(
                iterations, k=k, fraction_range=_pinning_window(m, data.n)
            )
        _check_fsv_run(data, config, params["seed"])

    def test_dataset_under_2k_points_runs(self):
        # n = 9 < 2k: every size the default window draws, 5 to 8,
        # trains k = 5 folds and leaves a holdout
        data = _dataset(9, 3.0, 2.0, 9)
        _check_fsv_run(data, FsvConfig(40, k=5), 9)

    @pytest.mark.parametrize("sample_size", [None, 200])
    def test_metrics_is_the_alpha_scaled_table_of_its_passes(
        self, sample_size
    ):
        data = _dataset(300, 1e9, 1.0, 8)
        config = FsvConfig(7, alpha=0.9, k=4, sample_size=sample_size)
        stream = RngStream(8, 1)
        passes = _run_passes(
            data,
            config.k,
            config.iterations,
            stream.clone(),
            sample_size=sample_size,
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
        window = _pinning_window(m, dataset.n)
        seed = params["seed"]
        stream, ref_stream = RngStream(seed, 4), RngStream(seed, 4)
        est = repeated_kfcv(
            dataset, k, repetitions, weights, stream, fraction_range=window
        )
        refs = [
            _reference_pass(
                dataset, k, ref_stream, ref_stream, ref_stream, None, window
            )
            for _ in range(repetitions)
        ]
        assert all(ref["m"] == m for ref in refs)
        tol = _Tolerance(dataset)
        means = np.array([ref["train_means"] for ref in refs])
        variances = np.array([ref["train_vars"] for ref in refs])
        losses = np.array([ref["fold_losses"] for ref in refs])
        lambdas = np.broadcast_to(weights.lambdas, losses.shape)
        _assert_close(
            est.mean_estimate,
            float(means.mean()),
            tol.mean_of(means, False),
            "mean_estimate",
        )
        _assert_close(
            est.var_estimate,
            float(variances.mean()),
            tol.mean_of(variances, True),
            "var_estimate",
        )
        _assert_close(
            est.loss,
            float(np.mean([(weights.lambdas * row).mean() for row in losses])),
            tol.mean_of(losses, True, lambdas),
            "loss",
        )
        assert _streams_equal(stream, ref_stream)


class TestSampledKfoldTrial:
    @given(
        params=_sizes,
        pinned=st.booleans(),
        split_streams=st.booleans(),
        whole=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pass_reference(
        self, params, pinned, split_streams, whole
    ):
        data, k, m = _unpack(params)
        seed = params["seed"]
        if whole:
            # the subsample is the whole dataset: no holdout, and no
            # fraction window can draw it
            scale = 10.0 ** params["log10_scale"]
            data = _dataset(m, params["mu"], scale, seed)
            pinned = True

        def streams():
            main = RngStream(seed, 1)
            if not split_streams:
                return main, main, main
            return main, RngStream(seed, 2), RngStream(seed, 3)

        main, folds, fraction = streams()
        ref_main, ref_folds, ref_fraction = streams()
        sample_size = m if pinned else None
        window = (0.6, 0.9) if whole else _pinning_window(m, data.n)
        trial = sampled_kfold_trial(
            data,
            k,
            main,
            folds_stream=folds if split_streams else None,
            fraction_stream=fraction if split_streams else None,
            sample_size=sample_size,
            fraction_range=window,
        )
        ref = _reference_pass(
            data, k, ref_main, ref_folds, ref_fraction, sample_size, window
        )
        tol = _Tolerance(data)
        assert trial.m == ref["m"] == m
        assert trial.fraction == ref["fraction"]
        _assert_close(
            trial.sample_mean, ref["mean"], tol.of(ref["mean"], False), "mean"
        )
        _assert_close(
            trial.sample_var, ref["var"], tol.of(ref["var"], True), "var"
        )
        if whole:
            assert trial.holdout_mse is None and ref["holdout"] is None
        else:
            _assert_close(
                trial.holdout_mse,
                ref["holdout"],
                tol.holdout(ref["holdout"], data.n - m),
                "holdout",
            )
        for i, (got, want) in enumerate(
            zip(trial.fold_losses, ref["fold_losses"])
        ):
            _assert_close(got, want, tol.of(want, True), f"fold {i} loss")
        for got, want in ((main, ref_main), (folds, ref_folds),
                          (fraction, ref_fraction)):
            assert _streams_equal(got, want)


def test_one_point_holdout_at_the_subsample_mean():
    # the one holdout point a thousandth of sigma from the subsample
    # mean: its loss is about 1e-6 sigma**2, the dataset's M2 about
    # n sigma**2. Fails without the holdout term of _Tolerance.
    n, m, k, seed = 301, 300, 5, 12
    values = 1e3 * np.random.default_rng(seed).standard_normal(n)
    probe = Dataset(values.copy(), n, 0.0, 1e6, seed, 0)
    inside = srs_sample(probe, m, RngStream(seed, 1)).indices
    outside = np.setdiff1d(np.arange(n), inside)
    values[outside] = values[inside].mean() + 1.0
    data = Dataset(values, n, 0.0, 1e6, seed, 0)
    trial = sampled_kfold_trial(data, k, RngStream(seed, 1), sample_size=m)
    ref_stream = RngStream(seed, 1)
    ref = _reference_pass(data, k, ref_stream, ref_stream, None, m, None)
    tol = _Tolerance(data)
    _assert_close(
        trial.holdout_mse, ref["holdout"], tol.holdout(ref["holdout"], 1),
        "holdout",
    )


def test_holdout_from_totals_is_exact_at_large_mean():
    # at mu = 1e9 the spread sits 12 decimal digits below the mean;
    # compare with exact rational arithmetic on the stored doubles
    n, m, k = 40, 29, 4
    data = _dataset(n, 1e9, 1e-3, 8)
    view_stream = RngStream(8, 1)
    passes = _run_passes(
        data, k, 1, RngStream(8, 1), sample_size=m, holdout=True
    )
    inside = set(srs_sample(data, m, view_stream).indices.tolist())
    exact = [Fraction(float(v)) for v in data.values]
    sample = [v for i, v in enumerate(exact) if i in inside]
    rest = [v for i, v in enumerate(exact) if i not in inside]
    mean = sum(sample) / m
    want = sum((v - mean) ** 2 for v in rest) / len(rest)
    got = Fraction(float(passes.holdout_mse[0]))
    # the rounding of the subtraction from the totals: ulps of the
    # dataset's M2 (about n sigma**2) over the holdout's size
    data_m2 = float(sum((v - sum(exact) / n) ** 2 for v in exact))
    bound = 4 * Fraction(math.ulp(float(want))) + 4 * Fraction(
        math.ulp(data_m2)
    ) / len(rest)
    assert abs(got - want) <= bound
    mean_got = Fraction(float(passes.sample_mean[0]))
    assert abs(mean_got - mean) <= Fraction(math.ulp(1e9))


def _sorted_draw_passes(
    data, k, passes, stream, folds_stream, fraction_stream, sample_size,
    fraction_range, holdout,
):
    """``_run_passes`` on the sort-and-gather draw path: ``srs_sample``'s
    draw sorted into a ``SampleView``, ``make_folds``, then
    ``values[view.indices[plan._order]] - pilot`` into the same
    ``_fold_moments`` and ``_combine``."""
    values = data.values
    pilot = values[0]
    fractions = np.full(passes, np.nan)
    counts, sums, m2s = (np.empty((passes, k)) for _ in range(3))
    for p in range(passes):
        if sample_size is None:
            f = draw_partition_fraction(fraction_stream, *fraction_range)
            fractions[p] = f
            m = int(round(f * data.n))
        else:
            m = sample_size
        picked = stream.generator.choice(
            data.n, size=m, replace=False, shuffle=False
        )
        picked.sort()
        view = SampleView(indices=picked, m=m, source_n=data.n)
        plan = make_folds(m, k, folds_stream)
        y = values[view.indices[plan._order]] - pilot
        sizes = [len(f) for f in plan.folds]
        counts[p] = sizes
        sums[p], m2s[p] = _fold_moments(y, sizes)
    stats = _combine(counts, sums, m2s, pilot, data if holdout else None)
    return stats._replace(fractions=fractions)


class TestDrawStep:
    @given(
        k=st.integers(min_value=2, max_value=10),
        n=st.one_of(st.integers(min_value=20, max_value=400), st.just(12_000)),
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
            # m anywhere from k to n, the whole dataset included
            sample_size, window = k + int(share * (n - k)), (0.6, 0.9)
            assume(_trainable(sample_size, k))
        else:
            # n >= 20 and low >= 0.5 keep every draw trainable for k <= 10
            low = 0.5 + 0.4 * share
            sample_size, window = None, (low, min(low + 0.2, 1.0))

        def streams():
            main = RngStream(seed, 1)
            if not split_streams:
                return main, main, main
            return main, RngStream(seed, 2), RngStream(seed, 3)

        main, folds, fraction = streams()
        ref_main, ref_folds, ref_fraction = streams()
        got = _run_passes(
            data, k, passes, main,
            folds_stream=folds if split_streams else None,
            fraction_stream=fraction if split_streams else None,
            sample_size=sample_size, fraction_range=window, holdout=holdout,
        )
        want = _sorted_draw_passes(
            data, k, passes, ref_main, ref_folds, ref_fraction, sample_size,
            window, holdout,
        )
        for name in got._fields:
            a, b = getattr(got, name), getattr(want, name)
            if b is None:
                assert a is None, name
            else:
                assert np.array_equal(a, b, equal_nan=True), name
        for a, b in ((main, ref_main), (folds, ref_folds),
                     (fraction, ref_fraction)):
            assert _streams_equal(a, b)


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


@pytest.mark.parametrize("case", sorted(_BAD_DRAWS))
def test_bad_draws_are_rejected(case):
    method, corrupt = _BAD_DRAWS[case]
    n, k = 50, 5
    data = _dataset(n, 0.0, 1.0, 6)

    def stub_stream():
        stream = RngStream(6, 1)
        stub = _StubGenerator(stream.generator, method, corrupt)
        object.__setattr__(stream, "generator", stub)
        return stream

    # n = 50 is below the size at which the subset draw is masked, so
    # both sizes take the sorted branch; the mask is checked below
    for m in (10, 30):
        with pytest.raises(ValidationError):
            if method == "choice":
                srs_sample(data, m, stub_stream())
            else:
                make_folds(m, k, stub_stream())
        if method == "choice":
            # the kernel shares srs_sample's checks
            with pytest.raises(ValidationError):
                _run_passes(data, k, 2, stub_stream(), sample_size=m)
            with pytest.raises(ValidationError):
                fsv_run(data, FsvConfig(2, k=k, sample_size=m), stub_stream())
            continue
        # the kernel shuffles the subsample and never calls permutation,
        # so a corrupt one changes neither its output nor its stream
        stub, real = stub_stream(), RngStream(6, 1)
        got = _run_passes(data, k, 2, stub, sample_size=m, holdout=True)
        want = _run_passes(data, k, 2, real, sample_size=m, holdout=True)
        for name in got._fields:
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a, b, equal_nan=True), name
        assert _streams_equal(stub, real)
        config = FsvConfig(2, k=k, sample_size=m)
        stub, real = stub_stream(), RngStream(6, 1)
        got, want = fsv_run(data, config, stub), fsv_run(data, config, real)
        assert got.compounded_measure == want.compounded_measure
        assert np.array_equal(got.iteration_losses, want.iteration_losses)
        assert got.iteration_metrics == want.iteration_metrics
        assert _streams_equal(stub, real)


@pytest.mark.parametrize(
    "case", sorted(c for c in _BAD_DRAWS if c.startswith("choice"))
)
def test_bad_draws_are_rejected_by_the_mask_branch(case):
    method, corrupt = _BAD_DRAWS[case]
    n, k, m = 2_000, 5, 1_500
    data = _dataset(n, 0.0, 1.0, 6)

    def stub_stream():
        stream = RngStream(6, 1)
        stub = _StubGenerator(stream.generator, method, corrupt)
        object.__setattr__(stream, "generator", stub)
        return stream

    with pytest.raises(ValidationError):
        srs_sample(data, m, stub_stream())
    with pytest.raises(ValidationError):
        _run_passes(data, k, 2, stub_stream(), sample_size=m)


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


def test_single_fold_is_rejected_before_drawing():
    data = _dataset(50, 0.0, 1.0, 6)
    stream = RngStream(6, 1)
    before = stream.generator.bit_generator.state
    with pytest.raises(ValidationError, match="k must be >= 2"):
        repeated_kfcv(data, 1, 2, LambdaWeights.uniform(1), stream)
    assert stream.generator.bit_generator.state == before


@pytest.mark.parametrize("window", [(0.6,), (0.6, 0.7, 0.8)])
@pytest.mark.parametrize("kernel", ["repeated_kfcv", "sampled_kfold_trial"])
def test_malformed_window_is_rejected_before_drawing(kernel, window):
    data = _dataset(50, 0.0, 1.0, 6)
    stream = RngStream(6, 1)
    before = stream.generator.bit_generator.state
    with pytest.raises(ValidationError, match="fraction_range"):
        if kernel == "repeated_kfcv":
            repeated_kfcv(
                data, 5, 2, LambdaWeights.uniform(5), stream,
                fraction_range=window,
            )
        else:
            sampled_kfold_trial(data, 5, stream, fraction_range=window)
    assert stream.generator.bit_generator.state == before


@pytest.mark.parametrize("kernel", ["repeated_kfcv", "sampled_kfold_trial"])
def test_window_too_low_for_n_is_rejected_before_drawing(kernel):
    # round(0.2 * 10) = 2 points cannot train both folds of k = 2, but
    # most draws from the window can: the call must fail on every seed,
    # not only where a pass happens to draw a small size
    data = _dataset(10, 0.0, 1.0, 6)
    for seed in range(60):
        stream = RngStream(seed, 1)
        before = stream.generator.bit_generator.state
        with pytest.raises(ValidationError, match="^fraction_range"):
            if kernel == "repeated_kfcv":
                repeated_kfcv(
                    data, 2, 3, LambdaWeights.uniform(2), stream,
                    fraction_range=(0.2, 0.9),
                )
            else:
                sampled_kfold_trial(
                    data, 2, stream, fraction_range=(0.2, 0.9)
                )
        assert stream.generator.bit_generator.state == before


_BAD_SIZE_CALLS = {
    # a pinned size whose folds cannot train: 3 points in 2 folds
    "untrainable-sample_size": (
        "sample_size",
        lambda data, s: sampled_kfold_trial(data, 2, s, sample_size=3),
    ),
    "sample_size-above-n": (
        "sample_size",
        lambda data, s: sampled_kfold_trial(data, 5, s, sample_size=51),
    ),
    "fractional-sample_size": (
        "sample_size",
        lambda data, s: sampled_kfold_trial(data, 5, s, sample_size=30.5),
    ),
    "fractional-k-trial": (
        "k", lambda data, s: sampled_kfold_trial(data, 5.5, s)
    ),
    "fractional-k-kfcv": (
        "k",
        lambda data, s: repeated_kfcv(
            data, 5.5, 2, LambdaWeights.uniform(5), s
        ),
    ),
    "fractional-repetitions": (
        "repetitions",
        lambda data, s: repeated_kfcv(
            data, 5, 2.5, LambdaWeights.uniform(5), s
        ),
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
    trial = sampled_kfold_trial(data, 5.0, RngStream(6, 1), sample_size=30.0)
    want = sampled_kfold_trial(data, 5, RngStream(6, 1), sample_size=30)
    assert trial.m == want.m == 30
    assert np.array_equal(trial.fold_losses, want.fold_losses)
    weights = LambdaWeights.uniform(5)
    est = repeated_kfcv(data, 5.0, 2.0, weights, RngStream(6, 1))
    assert est == repeated_kfcv(data, 5, 2, weights, RngStream(6, 1))
    assert type(est.k) is int and type(est.repetitions) is int


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
        m_lo, m_hi = _subsample_range(n, k, None, (low, high))
    except ValidationError:
        # a range the helper refuses is refused before any draw
        with pytest.raises(ValidationError, match="^fraction_range"):
            _run_passes(data, k, 8, stream, fraction_range=(low, high))
        assert stream.generator.bit_generator.state == before
        return
    passes = _run_passes(data, k, 8, stream, fraction_range=(low, high))
    assert ((m_lo <= passes.m) & (passes.m <= m_hi)).all()
    assert all(_trainable(int(m), k) for m in passes.m)
