import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from fusionval.errors import ValidationError
from fusionval.estimator import ModelParams, fit, loss
from fusionval.rng import derive_stream
from fusionval.sampling import srs_sample
from fusionval.data import generate_dataset

finite_arrays = npst.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=2, max_value=40),
    elements=st.floats(min_value=-1e6, max_value=1e6),
)


class TestFit:
    def test_constant_input(self):
        params = fit(np.array([1.0, 1.0, 1.0]))
        assert params == ModelParams(fitted_mean=1.0, fitted_var=0.0)

    def test_two_point_hand_computation(self):
        params = fit(np.array([0.0, 2.0]))
        assert params == ModelParams(fitted_mean=1.0, fitted_var=2.0)

    def test_rejects_fewer_than_two_points(self):
        with pytest.raises(ValidationError):
            fit(np.array([1.0]))
        with pytest.raises(ValidationError):
            fit(np.array([]))

    def test_large_sample_moments(self):
        draws = derive_stream(42, 20, 0).generator.standard_normal(1_000_000)
        params = fit(draws)
        assert abs(params.fitted_mean) < 0.005
        assert 0.99 < params.fitted_var < 1.01

    @given(value=st.floats(min_value=-1e6, max_value=1e6), n=st.integers(2, 50))
    def test_constant_vector_property(self, value, n):
        params = fit(np.full(n, value))
        # mean rounding leaves residuals of order (eps * value)^2
        assert params.fitted_var <= max(1.0, value * value) * 1e-25
        assert params.fitted_mean == pytest.approx(value)

    @given(train=finite_arrays)
    def test_variance_never_negative(self, train):
        assert fit(train).fitted_var >= 0.0

    def test_two_points_near_float_max_fit_without_overflow(self):
        # the two sum to 3e308, which no float holds; their mean does
        assert fit([1.5e308, 1.5e308]) == ModelParams(1.5e308, 0.0)


class TestLoss:
    def test_perfect_prediction(self):
        assert loss(ModelParams(0.0, 1.0), np.array([0.0, 0.0, 0.0])) == 0.0

    def test_single_residual(self):
        assert loss(ModelParams(0.0, 1.0), np.array([2.0])) == 4.0

    def test_rejects_empty_validation(self):
        with pytest.raises(ValidationError):
            loss(ModelParams(0.0, 1.0), np.array([]))

    def test_expected_value_on_held_out_data(self):
        d = generate_dataset(10_000, 0.0, 1.0, derive_stream(42, 21, 0))
        view = srs_sample(d, 7_500, derive_stream(42, 21, 1))
        model = fit(d.values[view.indices])
        mask = np.ones(d.n, dtype=bool)
        mask[view.indices] = False
        value = loss(model, d.values[mask])
        assert 0.9 < value < 1.1

    @given(train=finite_arrays, val=finite_arrays)
    def test_non_negative(self, train, val):
        assert loss(fit(train), val) >= 0.0

    @given(
        train=finite_arrays,
        val=finite_arrays,
        shift=st.floats(min_value=-1e5, max_value=1e5),
    )
    def test_shift_equivariance(self, train, val, shift):
        base = loss(fit(train), val)
        moved = loss(fit(train + shift), val + shift)
        assert moved == pytest.approx(base, rel=1e-10, abs=1e-10)

    @given(train=finite_arrays, val=finite_arrays)
    def test_variance_plus_squared_gap_identity(self, train, val):
        model = fit(train)
        value = loss(model, val)
        expected = float(val.var()) + (float(val.mean()) - model.fitted_mean) ** 2
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_a_split_far_from_the_fitted_mean_is_refused(self):
        # its squared distance from the mean, 1e400, is no float
        with pytest.raises(
            ValidationError,
            match="^validation must span at most .* got 1e\\+200 with "
            "fitted_mean 0$",
        ):
            loss(ModelParams(0.0, 1.0), [1e200])

    @pytest.mark.parametrize("centre", [np.nan, np.inf])
    def test_a_model_with_no_finite_mean_is_refused(self, centre):
        # such a mean makes every loss nan or inf
        with pytest.raises(
            ValidationError, match="^fitted_mean must be finite, got "
        ):
            loss(ModelParams(centre, 1.0), [1.0])

    def test_zero_iff_all_points_equal_fitted_mean(self):
        model = ModelParams(2.0, 0.0)
        assert loss(model, np.array([2.0, 2.0])) == 0.0
        assert loss(model, np.array([2.0, 2.1])) > 0.0


def test_fit_and_loss_keep_the_bits_of_the_plain_numpy_formulas():
    # wherever numpy's formulas are finite, fit has the bits of
    # x.mean() and x.var(ddof=1), and loss those of np.mean(dev * dev)
    rng = np.random.default_rng(35)
    for _ in range(2_000):
        scale = 10.0 ** rng.uniform(-100, 100)
        train = scale * (rng.standard_normal(rng.integers(2, 301)) + 3.0)
        held = scale * rng.standard_normal(rng.integers(1, 301))
        model = fit(train)
        dev = held - model.fitted_mean
        got = (model.fitted_mean, model.fitted_var, loss(model, held))
        want = (train.mean(), train.var(ddof=1), np.mean(dev * dev))
        assert np.array(got).tobytes() == np.array(want).tobytes()
