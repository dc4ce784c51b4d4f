"""Tests for streaming statistics accumulators."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from repro.utils import (
    SummaryStats,
    TimeWeightedStats,
    batch_means,
    confidence_interval,
)

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestSummaryStats:
    def test_empty_is_nan(self):
        s = SummaryStats()
        assert math.isnan(s.mean)
        assert math.isnan(s.variance)
        assert s.count == 0

    def test_single_value(self):
        s = SummaryStats()
        s.add(4.5)
        assert s.mean == 4.5
        assert s.minimum == s.maximum == 4.5
        assert math.isnan(s.variance)

    def test_known_sequence(self):
        s = SummaryStats()
        s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert s.mean == pytest.approx(5.0)
        assert s.variance == pytest.approx(np.var(
            [2, 4, 4, 4, 5, 5, 7, 9], ddof=1))
        assert s.total == pytest.approx(40.0)

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_numpy(self, values):
        s = SummaryStats()
        s.extend(values)
        assert s.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(
            np.var(values, ddof=1), rel=1e-6, abs=1e-4
        )
        assert s.minimum == min(values)
        assert s.maximum == max(values)

    @given(
        st.lists(finite_floats, min_size=1, max_size=50),
        st.lists(finite_floats, min_size=1, max_size=50),
    )
    def test_merge_equals_concatenation(self, left, right):
        a = SummaryStats()
        a.extend(left)
        b = SummaryStats()
        b.extend(right)
        merged = a.merge(b)
        combined = SummaryStats()
        combined.extend(left + right)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean, rel=1e-9,
                                            abs=1e-6)
        assert merged.variance == pytest.approx(
            combined.variance, rel=1e-6, abs=1e-4
        )

    def test_merge_with_empty(self):
        a = SummaryStats()
        a.extend([1.0, 2.0])
        merged = a.merge(SummaryStats())
        assert merged.count == 2
        assert merged.mean == pytest.approx(1.5)

    def test_stderr_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = SummaryStats()
        small.extend(rng.normal(size=10))
        large = SummaryStats()
        large.extend(rng.normal(size=1000))
        assert large.stderr < small.stderr


class TestTimeWeightedStats:
    def test_simple_average(self):
        tw = TimeWeightedStats(start_time=0.0, initial=0.0)
        tw.record(2.0, 10.0)
        tw.record(4.0, 0.0)
        assert tw.mean(at_time=4.0) == pytest.approx(5.0)

    def test_unchanged_signal(self):
        tw = TimeWeightedStats(start_time=0.0, initial=3.0)
        assert tw.mean(at_time=10.0) == pytest.approx(3.0)
        assert tw.variance(at_time=10.0) == pytest.approx(0.0)

    def test_extends_last_value_to_query_time(self):
        tw = TimeWeightedStats(start_time=0.0, initial=0.0)
        tw.record(1.0, 6.0)
        # value 0 for 1s, then 6 for 2s -> (0 + 12) / 3
        assert tw.mean(at_time=3.0) == pytest.approx(4.0)

    def test_time_going_backwards_rejected(self):
        tw = TimeWeightedStats(start_time=5.0)
        with pytest.raises(ValueError):
            tw.record(4.0, 1.0)

    def test_zero_span_is_nan(self):
        tw = TimeWeightedStats(start_time=0.0)
        assert math.isnan(tw.mean(at_time=0.0))

    def test_variance_known_case(self):
        tw = TimeWeightedStats(start_time=0.0, initial=0.0)
        tw.record(5.0, 10.0)  # 0 for half the horizon
        # over [0, 10): half 0, half 10 -> mean 5, E[x^2] 50, var 25
        assert tw.variance(at_time=10.0) == pytest.approx(25.0)

    def test_min_max_track_values(self):
        tw = TimeWeightedStats(initial=2.0)
        tw.record(1.0, -4.0)
        tw.record(2.0, 7.0)
        assert tw.minimum == -4.0
        assert tw.maximum == 7.0

    @given(st.lists(st.tuples(
        st.floats(min_value=0.01, max_value=10, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    ), min_size=1, max_size=40))
    def test_mean_between_min_and_max(self, steps):
        tw = TimeWeightedStats(start_time=0.0, initial=0.0)
        t = 0.0
        for dt, value in steps:
            t += dt
            tw.record(t, value)
        mean = tw.mean(at_time=t + 1.0)
        assert tw.minimum - 1e-9 <= mean <= tw.maximum + 1e-9


class TestConfidenceInterval:
    def test_empty(self):
        mean, hw = confidence_interval([])
        assert math.isnan(mean)

    def test_single_value_infinite_width(self):
        mean, hw = confidence_interval([3.0])
        assert mean == 3.0
        assert hw == math.inf

    def test_covers_true_mean_mostly(self):
        rng = np.random.default_rng(42)
        hits = 0
        trials = 200
        for _ in range(trials):
            sample = rng.normal(loc=5.0, scale=2.0, size=30)
            mean, hw = confidence_interval(sample, confidence=0.95)
            if abs(mean - 5.0) <= hw:
                hits += 1
        assert hits / trials > 0.9

    def test_width_decreases_with_sample_size(self):
        rng = np.random.default_rng(1)
        _, hw_small = confidence_interval(rng.normal(size=10))
        _, hw_large = confidence_interval(rng.normal(size=1000))
        assert hw_large < hw_small

    def test_half_width_bit_identical_to_t_ppf(self):
        rng = np.random.default_rng(7)
        for df in range(1, 301):
            sample = rng.normal(size=df + 1)
            sem = float(sample.std(ddof=1)) / math.sqrt(sample.size)
            for confidence in (0.8, 0.9, 0.95, 0.99):
                t = float(stats.t.ppf(0.5 + confidence / 2.0, df=df))
                _, hw = confidence_interval(sample, confidence=confidence)
                assert hw == t * sem, (df, confidence)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_confidence_outside_unit_interval_raises(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            confidence_interval([1.0, 2.0, 3.0], confidence=confidence)


class TestBatchMeans:
    def test_partitions_evenly(self):
        means = batch_means(list(range(100)), n_batches=10)
        assert len(means) == 10
        assert means[0] == pytest.approx(4.5)
        assert means[-1] == pytest.approx(94.5)

    def test_drops_trailing_remainder(self):
        means = batch_means([1.0] * 25, n_batches=10)
        assert len(means) == 10

    def test_too_few_observations_raises(self):
        with pytest.raises(ValueError):
            batch_means([1.0, 2.0], n_batches=10)

    def test_invalid_batch_count(self):
        with pytest.raises(ValueError):
            batch_means([1.0, 2.0], n_batches=0)

    def test_grand_mean_preserved_when_divisible(self):
        values = list(np.random.default_rng(3).random(40))
        means = batch_means(values, n_batches=8)
        assert np.mean(means) == pytest.approx(np.mean(values))
