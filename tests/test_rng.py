import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusionval.errors import ValidationError
from fusionval.rng import MAX_PURPOSE, Purpose, RngStream, derive_stream, standard_normal


class TestDeriveStream:
    def test_replay_is_identical(self):
        a = derive_stream(42, 0, 0).generator.random(500)
        b = derive_stream(42, 0, 0).generator.random(500)
        np.testing.assert_array_equal(a, b)

    def test_distinct_trials_differ_within_10k_draws(self):
        a = derive_stream(42, 0, 0).generator.random(10_000)
        b = derive_stream(42, 1, 0).generator.random(10_000)
        assert (a != b).any()

    def test_distinct_purposes_differ(self):
        a = derive_stream(42, 0, 0).generator.random(10_000)
        b = derive_stream(42, 0, 1).generator.random(10_000)
        assert (a != b).any()

    def test_uniform_mean_band(self):
        draws = derive_stream(42, 5, 2).generator.random(1_000_000)
        assert abs(draws.mean() - 0.5) < 0.002

    def test_address_packing_is_injective(self):
        seen = set()
        for trial in range(50):
            for purpose in range(9):
                seen.add(derive_stream(42, trial, purpose).stream_id)
        assert len(seen) == 50 * 9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            derive_stream(42, -1, 0)
        with pytest.raises(ValidationError):
            derive_stream(42, 0, -1)
        with pytest.raises(ValidationError):
            derive_stream(42, 0, MAX_PURPOSE)
        with pytest.raises(ValidationError):
            RngStream(-1, 0)

    def test_integral_addresses_are_taken_as_ints(self):
        want = derive_stream(42, 3, 1)
        for got in (
            derive_stream(np.int64(42), np.uint32(3), Purpose.SAMPLE),
            derive_stream(42.0, 3.0, 1.0),
        ):
            assert (got.seed, got.stream_id) == (want.seed, want.stream_id)
            assert type(got.seed) is type(got.stream_id) is int
        assert np.array_equal(
            standard_normal(got, np.int64(3)), standard_normal(want, 3)
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        trial=st.integers(min_value=0, max_value=2**30),
        purpose=st.integers(min_value=0, max_value=MAX_PURPOSE - 1),
    )
    def test_replay_property(self, seed, trial, purpose):
        a = derive_stream(seed, trial, purpose).generator.random(8)
        b = derive_stream(seed, trial, purpose).generator.random(8)
        assert np.array_equal(a, b)


class TestStandardNormal:
    def test_empty(self):
        out = standard_normal(RngStream(42, 0), 0)
        assert out.shape == (0,)

    def test_rejects_negative_count(self):
        with pytest.raises(ValidationError):
            standard_normal(RngStream(42, 0), -1)

    def test_moment_bands(self):
        draws = standard_normal(derive_stream(42, 9, 0), 1_000_000)
        assert abs(draws.mean()) < 0.005
        assert 0.99 < draws.var(ddof=1) < 1.01

    def test_upper_tail_fraction(self):
        draws = standard_normal(derive_stream(42, 9, 1), 1_000_000)
        frac = float((draws > 1.96).mean())
        assert 0.023 < frac < 0.027

    def test_replay(self):
        s = derive_stream(7, 3, 3)
        first = standard_normal(s, 100)
        again = standard_normal(s.clone(), 100)
        np.testing.assert_array_equal(first, again)


def test_cross_stream_correlation_is_negligible():
    a = derive_stream(42, 0, 0).generator.random(100_000)
    b = derive_stream(42, 1, 0).generator.random(100_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


def test_clone_rewinds_to_stream_start():
    s = derive_stream(42, 11, 2)
    first = s.generator.random(10)
    replay = s.clone().generator.random(10)
    np.testing.assert_array_equal(first, replay)
