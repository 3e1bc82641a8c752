import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusionval.data import generate_dataset
from fusionval.errors import ValidationError
from fusionval.fsv import FsvConfig, fsv_run, sampled_kfold_trial
from fusionval.kfold import LambdaWeights
from fusionval.rng import RngStream
from fusionval.sampling import inclusion_moments
from fusionval.theory import (
    TailBound,
    VarianceBudget,
    chebyshev_tail,
    chebyshev_threshold,
    hoeffding_tail,
    hybrid_variance,
    kfcv_variance_component,
    srs_variance_component,
)


class TestSrsComponent:
    def test_census_has_no_sampling_variance(self):
        assert srs_variance_component(1.0, 200, 200) == 0.0

    def test_three_quarters_of_ten_thousand(self):
        got = srs_variance_component(1.0, 7500, 10_000)
        assert got == pytest.approx(1.0 / 7500 * 0.25, rel=1e-12)
        assert got == pytest.approx(3.3333333e-5, rel=1e-6)

    def test_single_draw_from_pair(self):
        # (sigma2/n)(1 - n/N) = (2/1)(1 - 1/2)
        assert srs_variance_component(2.0, 1, 2) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "sigma2, n, pop",
        [(0.0, 10, 100), (-1.0, 10, 100), (1.0, 0, 100), (1.0, 101, 100)],
    )
    def test_rejects_bad_inputs(self, sigma2, n, pop):
        with pytest.raises(ValidationError):
            srs_variance_component(sigma2, n, pop)

    @pytest.mark.parametrize("sigma2", [math.inf, math.nan])
    def test_rejects_non_finite_variance_by_name(self, sigma2):
        # inf used to give inf * 0 = nan at a census
        with pytest.raises(ValidationError, match="^sigma2 must be finite"):
            srs_variance_component(sigma2, 10, 10)

    @given(
        sigma2=st.floats(0.01, 100),
        pop=st.integers(2, 10_000),
        data=st.data(),
    )
    def test_shrinks_as_subsample_grows(self, sigma2, pop, data):
        n_small = data.draw(st.integers(1, pop - 1))
        n_large = data.draw(st.integers(n_small + 1, pop))
        small = srs_variance_component(sigma2, n_small, pop)
        large = srs_variance_component(sigma2, n_large, pop)
        assert large < small


class TestKfcvComponent:
    def test_zero_fold_variances(self):
        assert kfcv_variance_component([0.0, 0.0, 0.0]) == 0.0

    def test_averages_two_folds(self):
        assert kfcv_variance_component([1.0, 3.0]) == pytest.approx(2.0)

    def test_equal_entries_pass_through(self):
        assert kfcv_variance_component([0.07] * 5) == pytest.approx(0.07)

    def test_large_entries_do_not_overflow(self):
        # a plain mean sums to inf before it divides
        assert kfcv_variance_component([1e308, 1e308]) == 1e308

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            kfcv_variance_component([])

    def test_rejects_negative_entry(self):
        with pytest.raises(ValidationError):
            kfcv_variance_component([0.1, -0.2])


class TestHybridVariance:
    def test_single_iteration_is_plain_sum(self):
        budget = hybrid_variance(1.0, 750, 1000, [0.002, 0.004], 1)
        expected = srs_variance_component(1.0, 750, 1000) + 0.003
        assert budget.total_per_t == pytest.approx(expected, rel=1e-12)
        assert budget.iterations == 1

    def test_doubling_iterations_halves_total(self):
        once = hybrid_variance(1.0, 750, 1000, [0.002, 0.004], 5)
        twice = hybrid_variance(1.0, 750, 1000, [0.002, 0.004], 10)
        assert twice.total_per_t == pytest.approx(once.total_per_t / 2, rel=1e-12)

    def test_large_fold_variances_give_a_budget(self):
        # an inf fold component would fail the budget's own finite rule
        budget = hybrid_variance(1.0, 10, 100, [1e308, 1e308], 5)
        assert budget.kfcv_component == 1e308

    def test_reference_budget(self):
        budget = hybrid_variance(1.0, 7500, 10_000, [0.0013] * 5, 10)
        assert budget.srs_component == pytest.approx(3.3333333e-5, rel=1e-6)
        assert budget.kfcv_component == pytest.approx(0.0013)
        assert budget.total_per_t == pytest.approx(1.3333333e-4, rel=1e-6)

    def test_rejects_non_positive_iterations(self):
        with pytest.raises(ValidationError):
            hybrid_variance(1.0, 750, 1000, [0.002], 0)

    def test_budget_checks_its_own_arithmetic(self):
        # the total is derived from the components, not given
        budget = VarianceBudget(
            srs_component=1.0, kfcv_component=0.5, iterations=4
        )
        assert budget.total_per_t == (1.0 + 0.5) / 4
        with pytest.raises(TypeError):
            VarianceBudget(
                srs_component=1.0,
                kfcv_component=1.0,
                total_per_t=0.5,
                iterations=1,
            )
        with pytest.raises(ValidationError):
            VarianceBudget(srs_component=-1.0, kfcv_component=1.0, iterations=1)
        with pytest.raises(ValidationError):
            VarianceBudget(srs_component=1.0, kfcv_component=1.0, iterations=0)

    @pytest.mark.parametrize("field", ["srs_component", "kfcv_component"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_budget_refuses_a_bad_component_by_name(self, field, value):
        parts = {"srs_component": 0.1, "kfcv_component": 0.1, field: value}
        with pytest.raises(
            ValidationError, match=f"^{field} must be finite and >= 0"
        ):
            VarianceBudget(**parts, iterations=3)

    def test_budget_refuses_components_whose_sum_overflows(self):
        # Python's float sum overflows to inf with no warning, so the
        # total would be inf and later be blamed on sigma_hyb2
        with pytest.raises(
            ValidationError,
            match=r"^srs_component \+ kfcv_component must be finite, "
            r"got 8\.5e\+307 \+ 1\.7e\+308$",
        ):
            VarianceBudget(8.5e307, 1.7e308, 10)

    def test_budget_bounds_the_measured_variance_of_l_star(self):
        # One dataset (n = 2 000), alpha = 1, T = 10, the default window
        # (0.6, 0.9) and k = 5. The budget's first term is a subsample
        # mean's variance and its second one fold loss's, but L*
        # averages each pass's mean fold loss, so the budget bounds
        # Var(L*) from above, here by the ratio README and
        # hybrid_variance's docstring quote. A false alarm needs the
        # 400-replicate variance at 4x its value or a fold variance at
        # 1/4 of its (chi-square tails 1e-142 and 1e-278 for Gaussian
        # replicates).
        n, t = 2_000, 10
        data = generate_dataset(n, 0.0, 1.0, RngStream(7, 0))
        l_star = [
            fsv_run(data, FsvConfig(t, alpha=1.0), RngStream(7, 1 + r))
            .compounded_measure
            for r in range(400)
        ]
        folds = np.array([
            sampled_kfold_trial(
                data, 5, RngStream(8, p), folds_stream=RngStream(9, p),
                fraction_stream=RngStream(10, p),
            ).fold_losses
            for p in range(2_000)
        ])
        budget = hybrid_variance(
            1.0, round(0.75 * n), n, folds.var(axis=0, ddof=1), t
        )
        measured = np.var(l_star, ddof=1)
        assert budget.total_per_t >= measured
        assert round(budget.total_per_t / measured, 1) == 15.6

    @given(t=st.integers(1, 10_000))
    def test_total_scales_inversely_with_iterations(self, t):
        base = hybrid_variance(2.0, 600, 800, [0.001, 0.003, 0.002], 1)
        scaled = hybrid_variance(2.0, 600, 800, [0.001, 0.003, 0.002], t)
        assert scaled.total_per_t * t == pytest.approx(
            base.total_per_t, rel=1e-12
        )


class TestChebyshev:
    @pytest.mark.parametrize(
        "k_dev, expected", [(1.0, 1.0), (2.0, 0.25), (10.0, 0.01)]
    )
    def test_tail_values(self, k_dev, expected):
        assert chebyshev_tail(k_dev) == pytest.approx(expected)

    def test_tail_caps_at_one(self):
        assert chebyshev_tail(0.5) == 1.0

    def test_tail_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            chebyshev_tail(0.0)

    def test_threshold_zero_variance(self):
        assert chebyshev_threshold(0.0, 10, 2.0) == 0.0

    def test_threshold_reference_point(self):
        assert chebyshev_threshold(1.0, 4, 2.0) == pytest.approx(1.0)

    def test_quadrupling_iterations_halves_threshold(self):
        narrow = chebyshev_threshold(0.9, 40, 3.0)
        wide = chebyshev_threshold(0.9, 10, 3.0)
        assert narrow == pytest.approx(wide / 2, rel=1e-12)

    def test_threshold_rejects_negative_variance(self):
        with pytest.raises(ValidationError):
            chebyshev_threshold(-0.1, 10, 2.0)


class TestHoeffding:
    def test_zero_epsilon_gives_vacuous_bound(self):
        assert hoeffding_tail(0.0, 10, 0.0, 1.0) == TailBound(2.0, 1.0)

    def test_reference_point(self):
        bound = hoeffding_tail(0.1, 100, 0.0, 1.0)
        assert bound.raw == pytest.approx(2 * math.exp(-2), rel=1e-12)
        assert bound.capped == bound.raw

    def test_exponent_scales_linearly_with_iterations(self):
        base = hoeffding_tail(0.1, 100, 0.0, 1.0)
        more = hoeffding_tail(0.1, 400, 0.0, 1.0)
        assert more.raw == pytest.approx(2 * math.exp(-8), rel=1e-12)
        assert more.raw < base.raw

    def test_wide_range_weakens_bound(self):
        tight = hoeffding_tail(0.05, 8, 0.0, 1.0)
        loose = hoeffding_tail(0.05, 8, 0.0, 4.0)
        assert loose.raw > tight.raw
        assert loose.capped == 1.0

    def test_rejects_degenerate_range(self):
        with pytest.raises(ValidationError):
            hoeffding_tail(0.1, 10, 1.0, 1.0)

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValidationError):
            hoeffding_tail(-0.01, 10, 0.0, 1.0)

    @given(
        eps=st.floats(0.001, 0.5),
        t=st.integers(1, 500),
        width=st.floats(0.5, 8.0),
    )
    def test_capped_never_exceeds_raw_or_one(self, eps, t, width):
        bound = hoeffding_tail(eps, t, 0.0, width)
        assert bound.capped <= 1.0
        assert bound.capped <= bound.raw
        # the exponential underflows to exactly 0.0 for sharp deviations
        assert bound.raw >= 0.0


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: LambdaWeights.uniform(2.5), "k"),
        (lambda: LambdaWeights.uniform(True), "k"),
        (lambda: inclusion_moments(10, 2.5), "m"),
        (lambda: inclusion_moments(10.5, 2), "n"),
        (lambda: srs_variance_component(1.0, 2.5, 10), "n"),
        (lambda: srs_variance_component(1.0, 2, 10.5), "population_n"),
        (lambda: hybrid_variance(1.0, 5, 10, [0.1], 2.5), "iterations"),
        (lambda: VarianceBudget(0.1, 0.1, 2.5), "iterations"),
        (lambda: chebyshev_threshold(1.0, 2.5, 2.0), "iterations"),
        (lambda: hoeffding_tail(0.1, 2.5, 0.0, 1.0), "iterations"),
    ],
    ids=[
        "uniform-2.5", "uniform-bool", "inclusion-m", "inclusion-n",
        "srs-n", "srs-population", "hybrid", "budget", "chebyshev",
        "hoeffding",
    ],
)
def test_integral_arguments_follow_the_integral_rule(call, name):
    # the rule of errors._number: a fractional or boolean count is refused
    with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
        call()
