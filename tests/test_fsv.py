import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import one_stream_trial, pinning_window
from fusionval.data import Dataset, generate_dataset
from fusionval.errors import ValidationError
from fusionval.fsv import (
    FsvConfig,
    FsvResult,
    SampledTrial,
    compound_measure,
    fsv_run,
    sampled_kfold_trial,
)
from fusionval.harness import ExperimentConfig
from fusionval.kfold import LambdaWeights, repeated_kfcv
from fusionval.rng import RngStream, derive_stream


def _constant_dataset(n, value=2.0):
    return Dataset(values=np.full(n, value), true_mean=value, true_var=1.0)


class TestFsvConfig:
    def test_alpha_domain(self):
        with pytest.raises(ValidationError):
            FsvConfig(iterations=5, alpha=0.0)
        with pytest.raises(ValidationError):
            FsvConfig(iterations=5, alpha=1.01)
        FsvConfig(iterations=5, alpha=1.0)

    def test_rejects_bad_iterations_and_sizes(self):
        with pytest.raises(ValidationError):
            FsvConfig(iterations=0)
        with pytest.raises(ValidationError):
            FsvConfig(iterations=1, k=1)
        # 4 points cannot fill k = 5 folds: fsv_run, which knows n,
        # refuses a window that pins them
        config = FsvConfig(
            iterations=1, k=5, fraction_range=pinning_window(4, 10)
        )
        with pytest.raises(ValidationError, match="too small"):
            fsv_run(_constant_dataset(10), config, RngStream(11, 0))

    @pytest.mark.parametrize(
        "window",
        [(0.5, 1), (np.float32(0.5), 0.9), (Fraction(3, 5), Fraction(9, 10))],
        ids=["int", "float32", "fraction"],
    )
    def test_window_is_stored_as_floats(self, window):
        # as ExperimentConfig stores it: the doubles the draws use
        config = FsvConfig(1, fraction_range=window)
        assert config.fraction_range == tuple(map(float, window))
        assert all(type(v) is float for v in config.fraction_range)

    @pytest.mark.parametrize("k, m", [(2, 2), (2, 3)])
    def test_rejects_sample_size_that_cannot_train(self, k, m):
        # the largest fold holds ceil(m / k) points; the rest must be >= 2
        config = FsvConfig(
            iterations=1, k=k, fraction_range=pinning_window(m, 10)
        )
        with pytest.raises(ValidationError, match="training complement"):
            fsv_run(_constant_dataset(10), config, RngStream(11, 0))

    def test_smallest_trainable_sample_size_accepted(self):
        for k, m in ((2, 4), (3, 3)):
            config = FsvConfig(
                iterations=1, k=k, fraction_range=pinning_window(m, 10)
            )
            fsv_run(_constant_dataset(10), config, RngStream(11, 0))

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"fraction_range": (0.6,)}, "fraction_range"),
            ({"fraction_range": (0.6, 0.7, 0.8)}, "fraction_range"),
            ({"fraction_range": (0.9, 0.6)}, "fraction_range"),
            ({"fraction_range": "ab"}, "fraction_range"),
            ({"iterations": 2.5}, "iterations"),
            ({"iterations": "3"}, "iterations"),
            ({"k": 2.5}, "k"),
            ({"k": True}, "k"),
            ({"alpha": "0.9"}, "alpha"),
        ],
    )
    def test_rejects_malformed_fields_by_name(self, fields, name):
        with pytest.raises(ValidationError, match=f"^{name}"):
            FsvConfig(**{"iterations": 3, **fields})

    def test_integral_floats_become_ints(self):
        config = FsvConfig(iterations=5.0, k=5.0)
        assert (config.iterations, config.k) == (5, 5)
        assert all(type(v) is int for v in (config.iterations, config.k))
        assert config.fraction_range == (0.6, 0.9)


class TestCompoundMeasure:
    def test_plain_mean_at_alpha_one(self):
        assert compound_measure(np.array([3.0, 5.0]), 1.0) == 4.0

    def test_shrinkage(self):
        assert compound_measure(np.ones(3), 0.95) == 0.95

    def test_homogeneity(self):
        losses = np.array([1.0, 2.0, 3.0])
        scaled = compound_measure(2.5 * losses, 0.5)
        assert scaled == pytest.approx(
            2.5 * compound_measure(losses, 0.5), rel=1e-12
        )

    def test_rejects_empty_or_bad_alpha(self):
        with pytest.raises(ValidationError):
            compound_measure(np.array([]), 0.95)
        with pytest.raises(ValidationError):
            compound_measure(np.ones(3), 0.0)

    @given(
        losses=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20
        ),
        c=st.floats(min_value=1e-3, max_value=1e3),
        alpha=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_homogeneity_property(self, losses, c, alpha):
        arr = np.array(losses)
        assert compound_measure(c * arr, alpha) == pytest.approx(
            c * compound_measure(arr, alpha), rel=1e-12, abs=1e-300
        )


class TestSampledTrial:
    def test_fixed_size_trial_shape(self):
        data = generate_dataset(1_000, 0.0, 1.0, derive_stream(11, 0, 0))
        window = pinning_window(600, 1_000)
        trial = one_stream_trial(
            data, 5, derive_stream(11, 0, 1), fraction_range=window
        )
        assert trial.m == 600
        assert trial.fold_losses.shape == (5,)
        assert type(trial.holdout_mse) is float

    def test_fraction_trial_bounds(self):
        data = generate_dataset(1_000, 0.0, 1.0, derive_stream(11, 1, 0))
        fraction_stream = derive_stream(11, 1, 2)
        trial = sampled_kfold_trial(
            data, 5, derive_stream(11, 1, 1),
            folds_stream=derive_stream(11, 1, 3),
            fraction_stream=fraction_stream,
        )
        # the fraction stream gave one uniform draw on the window, and m
        # is that fraction of n, rounded
        replay = derive_stream(11, 1, 2).generator
        fraction = replay.uniform(0.6, 0.9)
        assert 600 <= trial.m <= 900
        assert trial.m == int(round(fraction * 1_000))
        assert (
            fraction_stream.generator.bit_generator.state
            == replay.bit_generator.state
        )

    def test_split_streams_reproduce_single_draws(self):
        data = generate_dataset(500, 0.0, 1.0, derive_stream(11, 2, 0))
        streams = [
            [derive_stream(11, 2, i) for i in (1, 2, 3)] for _ in range(2)
        ]
        split, again = (
            sampled_kfold_trial(
                data, 5, subset, folds_stream=folds, fraction_stream=fraction
            )
            for subset, folds, fraction in streams
        )
        # each stream ends where its twin does
        for one, twin in zip(*streams):
            assert (
                one.generator.bit_generator.state
                == twin.generator.bit_generator.state
            )
        assert split.m == again.m
        assert split.sample_mean == again.sample_mean
        assert split.sample_var == again.sample_var
        assert split.holdout_mse == again.holdout_mse
        np.testing.assert_array_equal(split.fold_losses, again.fold_losses)

    def test_fold_losses_are_stored_read_only(self):
        data = generate_dataset(200, 0.0, 1.0, derive_stream(11, 4, 0))
        trial = one_stream_trial(data, 5, derive_stream(11, 4, 1))
        with pytest.raises(ValueError, match="read-only"):
            trial.fold_losses[0] = 0.0
        kept = SampledTrial(150, 0.0, 1.0, 1.0, [1, 2.5])
        assert kept.fold_losses.dtype == np.float64
        assert not kept.fold_losses.flags.writeable
        assert kept.fold_losses.tolist() == [1.0, 2.5]
        with pytest.raises(
            ValidationError,
            match=r"^fold_losses must be a vector of reals of length at "
            r"least 1, got a bool entry$",
        ):
            SampledTrial(150, 0.0, 1.0, 1.0, [True, 1.0])

    def test_rejects_sample_smaller_than_k(self):
        data = generate_dataset(100, 0.0, 1.0, derive_stream(11, 3, 0))
        with pytest.raises(ValidationError, match="too small"):
            one_stream_trial(
                data, 5, derive_stream(11, 3, 1),
                fraction_range=pinning_window(3, 100),
            )

    @pytest.mark.parametrize("missing", ["folds_stream", "fraction_stream"])
    def test_each_stream_is_required(self, missing):
        data = generate_dataset(100, 0.0, 1.0, derive_stream(11, 15, 0))
        stream = RngStream(11, 15)
        before = stream.generator.bit_generator.state
        given = {"folds_stream": stream, "fraction_stream": stream}
        del given[missing]
        with pytest.raises(TypeError, match=f"'{missing}'"):
            sampled_kfold_trial(data, 5, stream, **given)
        assert stream.generator.bit_generator.state == before


class TestFsvRun:
    def test_constant_dataset_collapses_to_zero(self):
        result = fsv_run(
            _constant_dataset(60),
            FsvConfig(iterations=4, k=3),
            RngStream(11, 4),
        )
        assert result.compounded_measure == 0.0
        assert all(m.var_est == 0.0 for m in result.iteration_metrics)

    def test_compounding_invariant(self):
        data = generate_dataset(800, 0.0, 1.0, derive_stream(11, 5, 0))
        result = fsv_run(
            data, FsvConfig(iterations=20, k=5), derive_stream(11, 5, 1)
        )
        assert result.compounded_measure == pytest.approx(
            0.95 * result.iteration_losses.mean(), abs=1e-12
        )
        assert result.mean_iteration_loss == pytest.approx(
            result.iteration_losses.mean()
        )
        assert len(result.iteration_losses) == 20

    def test_result_consistency_enforced(self):
        # L* is derived from the losses and alpha, not given
        losses = np.array([1.0, 2.0, 4.0])
        result = FsvResult(
            iteration_losses=losses,
            metrics=np.zeros((3, 6)),
            alpha=0.9,
        )
        assert result.compounded_measure == compound_measure(losses, 0.9)
        assert result.compounded_measure == 0.9 * losses.mean()
        with pytest.raises(TypeError):
            FsvResult(
                compounded_measure=1.0,
                iteration_losses=losses,
                metrics=np.zeros((3, 6)),
                alpha=0.9,
            )
        # and the checks that make it well defined stay in the constructor
        for bad_losses, alpha in (
            (np.array([]), 0.9),
            (1.0, 0.9),
            (losses, 0.0),
        ):
            with pytest.raises(ValidationError):
                FsvResult(
                    iteration_losses=bad_losses,
                    metrics=np.zeros((np.size(bad_losses), 6)),
                    alpha=alpha,
                )
        # a list or a float32 array is kept as a read-only float64 copy
        for given in ([1.0, 2.0], losses.astype(np.float32)):
            kept = FsvResult(
                iteration_losses=given,
                metrics=np.zeros((np.size(given), 6)),
                alpha=0.9,
            ).iteration_losses
            assert kept.dtype == np.float64 and not kept.flags.writeable
            assert np.array_equal(kept, given)

    @pytest.mark.parametrize(
        "metrics",
        [
            np.zeros((2, 5)),
            np.zeros((3, 6)),
            np.zeros(12),
        ],
    )
    def test_metrics_table_shape_enforced(self, metrics):
        with pytest.raises(ValidationError, match="metrics"):
            FsvResult(
                iteration_losses=np.array([1.0, 1.0]),
                metrics=metrics,
                alpha=0.95,
            )
        result = FsvResult(
            iteration_losses=np.array([1.0, 1.0]),
            metrics=np.zeros((2, 6)),
            alpha=0.95,
        )
        assert not result.metrics.flags.writeable

    @pytest.mark.parametrize(
        "metrics",
        [
            np.zeros((2, 6), dtype=np.float32),
            [[0.5] * 6] * 2,
            np.ones((2, 6), dtype=int),
        ],
        ids=["float32", "list", "int"],
    )
    def test_metrics_stored_as_read_only_float64(self, metrics):
        kept = FsvResult(np.ones(2), metrics, 0.95).metrics
        assert kept.dtype == np.float64 and not kept.flags.writeable
        assert np.array_equal(kept, metrics)

    def test_float64_arrays_stored_as_given(self):
        losses, metrics = np.ones(2), np.zeros((2, 6))
        result = FsvResult(losses, metrics, 0.95)
        assert result.iteration_losses is losses
        assert result.metrics is metrics
        assert not losses.flags.writeable and not metrics.flags.writeable

    def test_ragged_losses_refused_by_name(self):
        with pytest.raises(
            ValidationError,
            match=r"^iteration_losses must be a vector of reals of length at "
            r"least 1, got a ragged sequence$",
        ):
            FsvResult([[1.0], [1.0, 2.0]], np.zeros((2, 6)), 0.9)

    def test_rejects_small_dataset_and_exhausting_sample(self):
        # round(0.6 * 7) = 4 points cannot fill k = 5 folds
        data = generate_dataset(7, 0.0, 1.0, derive_stream(11, 6, 0))
        with pytest.raises(ValidationError, match="too small"):
            fsv_run(data, FsvConfig(iterations=1, k=5), RngStream(11, 7))
        big = generate_dataset(100, 0.0, 1.0, derive_stream(11, 6, 1))
        with pytest.raises(ValidationError, match="no holdout"):
            fsv_run(
                big,
                FsvConfig(
                    iterations=1, k=5, fraction_range=pinning_window(100, 100)
                ),
                RngStream(11, 7),
            )

    def test_rejects_drawn_size_that_cannot_train(self):
        # round(0.6 * 4) = 2 points cannot train both folds of k = 2;
        # the run stops before drawing anything
        data = generate_dataset(4, 0.0, 1.0, derive_stream(11, 10, 0))
        stream = RngStream(11, 11)
        with pytest.raises(ValidationError, match="smallest subsample"):
            fsv_run(data, FsvConfig(iterations=1, k=2), stream)
        assert stream.generator.bit_generator.state == (
            RngStream(11, 11).generator.bit_generator.state
        )

    def test_rejects_empty_holdout_from_wide_fraction(self):
        data = generate_dataset(10, 0.0, 1.0, derive_stream(11, 8, 0))
        config = FsvConfig(
            iterations=1, k=5, fraction_range=(0.97, 1.0)
        )
        with pytest.raises(ValidationError):
            fsv_run(data, config, RngStream(11, 9))
        # a window that reaches 1.0 can draw all n points, if rarely:
        # the run is refused on every seed, before it draws
        data = generate_dataset(2_000, 0.0, 1.0, derive_stream(11, 8, 1))
        config = FsvConfig(iterations=40, fraction_range=(0.6, 1.0))
        for seed in range(100):
            stream = RngStream(11, seed)
            before = stream.generator.bit_generator.state
            with pytest.raises(ValidationError, match="no holdout"):
                fsv_run(data, config, stream)
            assert stream.generator.bit_generator.state == before

    def test_holdout_rule_is_shared_with_the_study_config(self):
        # round(0.97 * 10) = 10: the window can draw the whole dataset
        window = (0.97, 1.0)
        data = generate_dataset(10, 0.0, 1.0, derive_stream(11, 12, 0))
        stream = RngStream(11, 13)
        with pytest.raises(ValidationError, match="no holdout") as run:
            fsv_run(
                data,
                FsvConfig(iterations=1, k=5, fraction_range=window),
                stream,
            )
        with pytest.raises(ValidationError) as trial:
            one_stream_trial(data, 5, stream, fraction_range=window)
        assert stream.generator.bit_generator.state == (
            RngStream(11, 13).generator.bit_generator.state
        )
        with pytest.raises(ValidationError) as study:
            ExperimentConfig(sizes=(10,), k=5, fraction_range=window)
        assert str(run.value) == str(trial.value) == str(study.value)
        # repeated_kfcv scores no holdout, so it takes the window and
        # draws all 10 points
        repeated_kfcv(
            data, 1, LambdaWeights.uniform(5), stream, fraction_range=window
        )
        # round(1.0 * 100) = 100, though a draw lands there rarely: the
        # trial is refused on every seed, before it draws
        data = generate_dataset(100, 0.0, 1.0, derive_stream(11, 14, 0))
        for seed in range(100):
            stream = RngStream(11, seed)
            before = stream.generator.bit_generator.state
            with pytest.raises(ValidationError, match="no holdout"):
                one_stream_trial(data, 5, stream, fraction_range=(0.6, 1.0))
            assert stream.generator.bit_generator.state == before

    def test_unbiasedness_with_and_without_shrinkage(self):
        runs, t, n, m = 600, 10, 500, 375
        expected = 1.0 + 1.0 / 300.0
        for alpha, tag in ((1.0, 40), (0.9, 41)):
            means = np.empty(runs)
            config = FsvConfig(
                iterations=t, alpha=alpha, k=5,
                fraction_range=pinning_window(m, n),
            )
            for r in range(runs):
                data = generate_dataset(
                    n, 0.0, 1.0, derive_stream(42, 1_000_000 + r, tag)
                )
                result = fsv_run(
                    data, config, derive_stream(42, 1_000_000 + r, tag + 2)
                )
                means[r] = result.compounded_measure
            se = means.std(ddof=1) / math.sqrt(runs)
            assert abs(means.mean() - alpha * expected) < 4 * se

    def test_long_run_average_settles_near_shrunk_expectation(self):
        data = generate_dataset(100_000, 0.0, 1.0, derive_stream(42, 50, 0))
        config = FsvConfig(
            iterations=10_000, alpha=0.95, k=5,
            fraction_range=pinning_window(1_500, 100_000),
        )
        result = fsv_run(data, config, derive_stream(42, 50, 1))
        sample_var = float(data.values.var(ddof=1))
        target = 0.95 * sample_var * (1.0 + 1.0 / 1_200.0)
        assert abs(result.compounded_measure - target) < 0.01
