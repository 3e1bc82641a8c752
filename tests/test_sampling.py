from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from fusionval.data import generate_dataset
from fusionval.errors import ValidationError
from fusionval.rng import RngStream, derive_stream
from fusionval.sampling import (
    SampleView,
    draw_partition_fraction,
    holdout_values,
    inclusion_moments,
    srs_sample,
)


def _dataset(n, stream_id=0, seed=5):
    return generate_dataset(n, 0.0, 1.0, RngStream(seed, stream_id))


class TestSrsSample:
    def test_full_sample_covers_everything(self):
        d = _dataset(40)
        view = srs_sample(d, 40, RngStream(5, 1))
        np.testing.assert_array_equal(view.indices, np.arange(40))

    def test_forced_single(self):
        d = _dataset(1)
        view = srs_sample(d, 1, RngStream(5, 1))
        assert list(view.indices) == [0]

    def test_rejects_out_of_range_m(self):
        d = _dataset(10)
        for m in (0, -1, 11):
            with pytest.raises(ValidationError):
                srs_sample(d, m, RngStream(5, 1))

    def test_inclusion_frequency_oracle(self):
        d = _dataset(5)
        stream = RngStream(5, 2)
        counts = np.zeros(5)
        draws = 100_000
        for _ in range(draws):
            counts[srs_sample(d, 2, stream).indices] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 0.4) < 0.01)

    def test_subset_uniformity_chi_squared(self):
        n, m, draws = 5, 2, 200_000
        d = _dataset(n)
        stream = RngStream(5, 3)
        cells = {c: 0 for c in combinations(range(n), m)}
        for _ in range(draws):
            cells[tuple(srs_sample(d, m, stream).indices)] += 1
        expected = draws / len(cells)
        chi2 = sum((c - expected) ** 2 / expected for c in cells.values())
        assert chi2 < sps.chi2.ppf(0.999, len(cells) - 1)

    def test_becomes_representative_as_m_grows(self):
        d = _dataset(4000, stream_id=7)
        stream = RngStream(5, 4)
        full_mean = float(d.values.mean())

        def mean_abs_dev(m, repeats=30):
            devs = [
                abs(float(d.values[srs_sample(d, m, stream).indices].mean()) - full_mean)
                for _ in range(repeats)
            ]
            return float(np.mean(devs))

        small, near_full = mean_abs_dev(40), mean_abs_dev(3999)
        assert near_full < small
        view = srs_sample(d, 4000, stream)
        assert float(d.values[view.indices].mean()) == full_mean

    @given(data=st.data(), n=st.integers(min_value=1, max_value=300))
    @settings(max_examples=60)
    def test_indices_distinct_sorted_in_range(self, data, n):
        m = data.draw(st.integers(min_value=1, max_value=n))
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        d = generate_dataset(n, 0.0, 1.0, RngStream(1, 0))
        view = srs_sample(d, m, RngStream(seed, 0))
        assert len(np.unique(view.indices)) == m
        assert (np.diff(view.indices) > 0).all() if m > 1 else True
        assert view.indices[0] >= 0 and view.indices[-1] < n
        # the subset of numpy's unshuffled choice, sorted
        drawn = RngStream(seed, 0).generator.choice(
            n, size=m, replace=False, shuffle=False
        )
        np.testing.assert_array_equal(view.indices, np.sort(drawn))


class TestSampleView:
    def test_rejects_duplicates_and_disorder(self):
        with pytest.raises(ValidationError):
            SampleView(indices=np.array([1, 1]), source_n=5)
        with pytest.raises(ValidationError):
            SampleView(indices=np.array([3, 2]), source_n=5)
        with pytest.raises(ValidationError):
            SampleView(indices=np.array([0, 5]), source_n=5)
        # sorted and in range, but no gather can take float indices
        with pytest.raises(ValidationError, match="integer"):
            SampleView(indices=np.array([0.0, 2.0]), source_n=5)

    def test_source_n_is_a_count(self):
        assert type(SampleView([0, 2], 5.0).source_n) is int
        for bad in ("5", 0, 2.5):
            with pytest.raises(ValidationError, match="^source_n "):
                SampleView(indices=np.array([0]), source_n=bad)

    def test_holdout_is_the_complement(self):
        d = _dataset(6)
        view = SampleView(indices=np.array([0, 2, 5]), source_n=6)
        np.testing.assert_array_equal(
            holdout_values(d, view), d.values[[1, 3, 4]]
        )

    def test_size_mismatch_between_view_and_dataset(self):
        view = SampleView(indices=np.array([0]), source_n=3)
        with pytest.raises(ValidationError):
            holdout_values(_dataset(6), view)

    def test_full_sample_has_empty_holdout(self):
        d = _dataset(4)
        view = srs_sample(d, 4, RngStream(5, 6))
        assert holdout_values(d, view).size == 0


class TestInclusionMoments:
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (100, 100, (100.0, 0.0)),
            (2, 1, (1.0, 0.5)),
            (10_000, 7_500, (7500.0, 1875.0)),
        ],
    )
    def test_closed_form(self, n, m, expected):
        assert inclusion_moments(n, m) == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            inclusion_moments(5, 0)
        with pytest.raises(ValidationError):
            inclusion_moments(5, 6)


class TestPartitionFraction:
    def test_range_contract(self):
        stream = RngStream(5, 8)
        draws = [draw_partition_fraction(stream) for _ in range(1000)]
        assert all(0.60 <= f <= 0.90 for f in draws)

    def test_mean_band(self):
        g = derive_stream(42, 6, 3)
        draws = g.generator.uniform(0.60, 0.90, size=100_000)
        assert abs(draws.mean() - 0.75) < 0.002

    def test_replay(self):
        a = [draw_partition_fraction(RngStream(5, 9)) for _ in range(5)]
        b = [draw_partition_fraction(RngStream(5, 9)) for _ in range(5)]
        assert a[0] == b[0]
        s1, s2 = RngStream(5, 10), RngStream(5, 10)
        seq1 = [draw_partition_fraction(s1) for _ in range(5)]
        seq2 = [draw_partition_fraction(s2) for _ in range(5)]
        assert seq1 == seq2

    def test_rejects_bad_window(self):
        with pytest.raises(ValidationError):
            draw_partition_fraction(RngStream(5, 11), 0.9, 0.6)
        with pytest.raises(ValidationError):
            draw_partition_fraction(RngStream(5, 11), 0.0, 1.0)
