"""The batched pass kernel against a loop over the public per-pass API.

``fsv_run``, ``repeated_kfcv`` and ``sampled_kfold_trial`` draw every
pass through ``draw_partition_fraction``, ``srs_sample`` and
``make_folds`` and then compute all statistics of the batch at once. The
reference here replays the same draws on clones of the streams and
scores each pass on its own: ``fit`` on the subsample,
``holdout_values`` + ``loss`` on the rest, ``kfold_losses`` on the folds
and ``fit`` on each fold's training complement. After every call the
streams must stand exactly where the reference left them.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fusionval.data import Dataset
from fusionval.estimator import fit, loss
from fusionval.fsv import FsvConfig, fsv_run, sampled_kfold_trial
from fusionval.kfold import (
    LambdaWeights,
    _run_passes,
    _trainable,
    kfold_losses,
    make_folds,
    repeated_kfcv,
)
from fusionval.metrics import METRIC_FIELDS
from fusionval.rng import RngStream
from fusionval.sampling import (
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
    train = [fit(sample[plan.complement(i)]) for i in range(k)]
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


class TestFsvRun:
    @given(params=_sizes, iterations=st.integers(1, 4), pinned=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_pass_reference(self, params, iterations, pinned):
        data, k, m = _unpack(params)
        assume(data.n >= 2 * k)
        alpha = 0.95
        if pinned:
            config = FsvConfig(iterations, alpha=alpha, k=k, sample_size=m)
        else:
            config = FsvConfig(
                iterations,
                alpha=alpha,
                k=k,
                fraction_range=_pinning_window(m, data.n),
            )
        seed = params["seed"]
        stream, ref_stream = RngStream(seed, 1), RngStream(seed, 1)
        result = fsv_run(data, config, stream)
        tol = _Tolerance(data)
        for t in range(iterations):
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
            row = result.iteration_metrics[t]
            for field in METRIC_FIELDS:
                _assert_close(
                    getattr(row, field),
                    alpha * raw[field],
                    tols[field] + math.ulp(alpha * raw[field]),
                    f"iteration {t} {field}",
                )
        assert _streams_equal(stream, ref_stream)


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
