import math
import re

import numpy as np
import pytest

from fusionval.data import Dataset, generate_dataset
from fusionval.errors import _SUM_LIMIT, ValidationError
from fusionval.rng import RngStream, derive_stream


def test_single_point_shape():
    d = generate_dataset(1, 0.0, 1.0, RngStream(1, 0))
    assert d.n == 1 and d.values.shape == (1,)


def test_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        generate_dataset(0, 0.0, 1.0, RngStream(1, 0))
    with pytest.raises(ValidationError):
        generate_dataset(10, 0.0, 0.0, RngStream(1, 0))
    with pytest.raises(ValidationError):
        generate_dataset(10, 0.0, -1.0, RngStream(1, 0))


def test_standard_protocol_mean_band():
    d = generate_dataset(10_000, 0.0, 1.0, derive_stream(42, 0, 0))
    assert abs(d.values.mean()) < 0.05


def test_shifted_scaled_moments():
    d = generate_dataset(10_000, 5.0, 4.0, derive_stream(42, 1, 0))
    assert abs(d.values.mean() - 5.0) < 0.1
    assert abs(d.values.var(ddof=1) - 4.0) < 0.3
    assert d.true_mean == 5.0 and d.true_var == 4.0


def test_replay_determinism():
    a = generate_dataset(1000, 0.0, 1.0, derive_stream(7, 2, 0))
    b = generate_dataset(1000, 0.0, 1.0, derive_stream(7, 2, 0))
    np.testing.assert_array_equal(a.values, b.values)


def test_affine_relation_between_streams():
    base = generate_dataset(5000, 0.0, 1.0, derive_stream(9, 0, 0))
    moved = generate_dataset(5000, 5.0, 4.0, derive_stream(9, 0, 0))
    np.testing.assert_allclose(
        moved.values, 5.0 + 2.0 * base.values, rtol=1e-12
    )


def test_values_are_write_protected():
    d = generate_dataset(10, 0.0, 1.0, RngStream(3, 0))
    with pytest.raises(ValueError):
        d.values[0] = 99.0


def test_rejects_empty_or_non_vector_values():
    for values in (np.zeros(0), np.zeros((2, 2))):
        with pytest.raises(
            ValidationError, match="^values must be a vector of reals"
        ):
            Dataset(values=values, true_mean=0.0, true_var=1.0)
    # n is the length of the values, so it cannot disagree with them
    assert Dataset(np.zeros(3), 0.0, 1.0).n == 3


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_rejects_non_finite_values(bad):
    with pytest.raises(ValidationError, match="^values must be finite"):
        Dataset(np.array([bad, 1.0]), 0.0, 1.0)


def test_a_dataset_whose_sums_would_overflow_is_refused_when_built():
    # n * range**2 above float max: fsv_run, sampled_kfold_trial and
    # repeated_kfcv on it returned inf and nan
    want = "values must span at most 2.99808e+152 (max - min) on n=2000"
    with pytest.raises(ValidationError, match=f"^{re.escape(want)}"):
        generate_dataset(2000, 0.0, 1e306, derive_stream(1, 0, 0))
    # a range that overflows to inf, every value finite, is no exception
    with pytest.raises(ValidationError, match="^values must span at most"):
        Dataset(np.array([1e308, -1e308]), 0.0, 1.0)


def test_the_widest_dataset_a_study_can_draw_is_taken():
    # every drawn value lies within 27.42 sigma of mu (errors._SUM_LIMIT),
    # so at the largest sigma2 an accepted config allows for n points,
    # n * sigma2 = _SUM_LIMIT, even a dataset spanning 54.84 sigma passes
    n = 100
    sigma = math.sqrt(_SUM_LIMIT / n)
    values = np.where(np.arange(n) % 2, 27.42, -27.42) * sigma
    Dataset(values, 0.0, sigma * sigma)


def test_values_are_held_as_float64():
    given = np.arange(5)
    data = Dataset(given, 2.0, 2.0)
    assert data.values.dtype == np.float64
    assert np.array_equal(data.values, given)
    floats = np.arange(5.0)
    # a float64 array is held as given, not copied
    assert Dataset(floats, 2.0, 2.0).values is floats


@pytest.mark.parametrize(
    "true_mean, true_var",
    [
        (float("nan"), 1.0),
        (float("inf"), 1.0),
        (0.0, float("nan")),
        (0.0, float("inf")),
        (0.0, 0.0),
        (0.0, -1.0),
        (float("nan"), -1.0),
    ],
)
def test_rejects_bad_ground_truth(true_mean, true_var):
    # the error names the first bad field; the mean is checked first
    if math.isfinite(true_mean):
        message = "^true_var must be finite and > 0"
    else:
        message = "^true_mean must be finite"
    with pytest.raises(ValidationError, match=message):
        Dataset(np.zeros(3), true_mean, true_var)
