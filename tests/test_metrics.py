import math

import numpy as np
import pytest

from fusionval.errors import ValidationError
from fusionval.metrics import (
    METRIC_FIELDS,
    Aggregate,
    Method,
    TrialMetrics,
    summarize,
    trial_metrics,
)


def _row(**overrides):
    base = dict(
        mean_est=0.0, var_est=1.0, mse=1.0, bias=0.0, roc_me=0.0, roc_ve=0.0
    )
    base.update(overrides)
    return TrialMetrics(**base)


def _table(*rows):
    return np.array(rows, dtype=np.float64)


class TestTrialMetrics:
    def test_perfect_estimates_zero_the_deviations(self):
        row = trial_metrics(
            mean_est=0.0,
            var_est=1.0,
            mse=1.0,
            true_mean=0.0,
            true_var=1.0,
            fold_loss_for_bias=1.0,
        )
        assert row.roc_me == 0.0
        assert row.roc_ve == 0.0
        assert row.bias == 0.0
        assert row.mean_est == 0.0
        assert row.var_est == 1.0
        assert row.mse == 1.0

    def test_deviations_are_absolute(self):
        row = trial_metrics(
            mean_est=-0.01,
            var_est=0.97,
            mse=1.1,
            true_mean=0.0,
            true_var=1.0,
            fold_loss_for_bias=1.2,
        )
        assert row.roc_me == pytest.approx(0.01)
        assert row.roc_ve == pytest.approx(0.03)
        assert row.bias == pytest.approx(0.2)

    def test_rejects_non_positive_true_var(self):
        with pytest.raises(ValidationError):
            trial_metrics(0.0, 1.0, 1.0, 0.0, 0.0, 1.0)

    def test_field_order_matches_report_columns(self):
        assert METRIC_FIELDS == (
            "mean_est", "var_est", "mse", "bias", "roc_me", "roc_ve"
        )


class TestSummarize:
    def test_single_trial_degenerates(self):
        summary = summarize(_table(_row(mse=1.3)))
        assert list(summary) == list(METRIC_FIELDS)
        assert summary["mse"] == Aggregate(mean=1.3, min=1.3, max=1.3)

    def test_two_trials_mean_min_max(self):
        agg = summarize(_table(_row(var_est=0.9), _row(var_est=1.1)))[
            "var_est"
        ]
        assert agg.mean == pytest.approx(1.0)
        assert agg.min == 0.9
        assert agg.max == 1.1

    def test_order_invariant(self):
        rows = [_row(mse=v) for v in (0.8, 1.4, 1.0, 0.9)]
        forward = summarize(_table(*rows))
        backward = summarize(_table(*rows[::-1]))
        for name in METRIC_FIELDS:
            assert forward[name].min == backward[name].min
            assert forward[name].max == backward[name].max
            assert forward[name].mean == pytest.approx(
                backward[name].mean, rel=1e-15
            )

    def test_column_means_are_summed_pairwise(self):
        # the column mean of a contiguous vector, not a row-by-row sum
        rng = np.random.default_rng(3)
        for t in (10, 50, 100):
            table = rng.standard_normal((t, len(METRIC_FIELDS)))
            summary = summarize(table)
            for j, name in enumerate(METRIC_FIELDS):
                column = np.array(table[:, j])
                assert summary[name] == Aggregate(
                    float(column.mean()),
                    float(column.min()),
                    float(column.max()),
                )

    def test_large_column_means_do_not_overflow(self):
        # a plain mean sums to inf (and warns) before it divides
        summary = summarize(np.full((2, len(METRIC_FIELDS)), 1e308))
        assert set(summary.values()) == {Aggregate(1e308, 1e308, 1e308)}

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            summarize(np.empty((0, len(METRIC_FIELDS))))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValidationError, match="trials x 6"):
            summarize(np.ones((3, 5)))

    @pytest.mark.parametrize(
        "table",
        [
            [["1"] * 6],
            [[True] * 6],
            [[0.5] * 5 + [True]],
            [[0.5] * 5 + [np.True_]],
            [np.ones(6, bool), np.ones(6)],
            np.array([[None] * 6]),
            [[0.5] * 6, [0.5] * 5],
            np.ones((2, 3, 6)),
        ],
        ids=[
            "numeric-str", "bool", "mixed-bool", "mixed-numpy-bool",
            "nested-bool-array", "none", "ragged", "3-D",
        ],
    )
    def test_rejects_a_table_that_is_not_reals(self, table):
        with pytest.raises(ValidationError, match="^table must be a"):
            summarize(table)


class TestGridLevelBehaviour:
    """Slow checks against the default study grid."""

    def test_plain_mean_deviation_tracks_half_normal(self, grid_report):
        cell = grid_report.cell(10_000, 100)
        got = cell.summaries[Method.SRS.value]["roc_me"].mean
        expected = math.sqrt(2 / math.pi) / math.sqrt(0.75 * 10_000)
        assert abs(got - expected) / expected < 0.10

    def test_bias_scales_with_root_population_size(self, grid_report):
        small = grid_report.cell(10_000, 100)
        large = grid_report.cell(50_000, 100)
        ratio = (
            small.summaries[Method.SRS.value]["bias"].mean
            / large.summaries[Method.SRS.value]["bias"].mean
        )
        root5 = math.sqrt(5.0)
        assert root5 * 0.75 <= ratio <= root5 * 1.25
