"""Tests for traffic generators (fGn, on/off, Markovian)."""

import numpy as np
import pytest

from repro.traffic import (
    FgnGenerator,
    MMPP2,
    OnOffSource,
    aggregate_onoff_trace,
    autocorrelation,
    fgn_autocovariance,
    fgn_trace,
    mmpp2_trace,
    pareto_sojourns,
    poisson_trace,
    taqqu_hurst,
)
from repro.utils.rng import spawn_rng


class TestFgnAutocovariance:
    def test_lag_zero_is_unit_variance(self):
        gamma = fgn_autocovariance(0.7, 10)
        assert gamma[0] == pytest.approx(1.0)

    def test_white_noise_uncorrelated(self):
        gamma = fgn_autocovariance(0.5, 10)
        assert gamma[1:] == pytest.approx(np.zeros(10), abs=1e-12)

    def test_persistent_positive_correlation(self):
        gamma = fgn_autocovariance(0.8, 10)
        assert (gamma[1:] > 0).all()

    def test_antipersistent_negative_lag1(self):
        gamma = fgn_autocovariance(0.3, 5)
        assert gamma[1] < 0

    def test_power_law_decay(self):
        hurst = 0.85
        gamma = fgn_autocovariance(hurst, 200)
        lags = np.arange(50, 200)
        slope, _ = np.polyfit(np.log(lags), np.log(gamma[50:200]), 1)
        assert slope == pytest.approx(2 * hurst - 2, abs=0.05)

    def test_invalid_hurst(self):
        with pytest.raises(ValueError):
            fgn_autocovariance(0.0, 5)
        with pytest.raises(ValueError):
            fgn_autocovariance(1.0, 5)


class TestFgnGenerator:
    def test_moments(self):
        x = FgnGenerator(hurst=0.75, seed=0).sample(
            2**14, mean=5.0, std=2.0
        )
        assert x.mean() == pytest.approx(5.0, abs=0.5)
        assert x.std() == pytest.approx(2.0, rel=0.1)

    def test_sample_autocorrelation_matches_theory(self):
        x = FgnGenerator(hurst=0.8, seed=1).sample(2**15)
        sample_acf = autocorrelation(x, 5)
        theory = fgn_autocovariance(0.8, 5)
        assert sample_acf[1:] == pytest.approx(theory[1:], abs=0.05)

    def test_reproducible(self):
        a = FgnGenerator(0.7, seed=9).sample(256)
        b = FgnGenerator(0.7, seed=9).sample(256)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = FgnGenerator(0.7, seed=1).sample(256)
        b = FgnGenerator(0.7, seed=2).sample(256)
        assert not np.array_equal(a, b)

    def test_cumulative_is_fbm(self):
        generator = FgnGenerator(0.6, seed=3)
        fbm = generator.cumulative(1000)
        assert fbm.shape == (1000,)

    def test_validation(self):
        with pytest.raises(ValueError):
            FgnGenerator(hurst=1.5)
        with pytest.raises(ValueError):
            FgnGenerator(0.7).sample(0)
        with pytest.raises(ValueError):
            FgnGenerator(0.7).sample(10, std=-1.0)

    def test_trace_non_negative(self):
        # LRD sample means converge slowly (Var ~ n^{2H-2}); use a long
        # trace and a tolerance matched to that rate.
        trace = fgn_trace(2**16, hurst=0.8, mean_rate=10.0,
                          peakedness=0.5, seed=4)
        assert (trace >= 0).all()
        assert trace.mean() == pytest.approx(10.0, rel=0.15)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            fgn_trace(10, 0.8, mean_rate=0.0)


class TestParetoSojourns:
    def test_mean_matches(self):
        rng = spawn_rng(0, "pareto-test")
        # alpha=1.9 keeps the sample mean well-behaved
        samples = pareto_sojourns(rng, alpha=1.9, mean=10.0,
                                  size=200_000)
        assert samples.mean() == pytest.approx(10.0, rel=0.05)

    def test_minimum_is_xm(self):
        rng = spawn_rng(1, "pareto-test")
        samples = pareto_sojourns(rng, alpha=1.5, mean=9.0, size=10_000)
        x_m = 9.0 * 0.5 / 1.5
        assert samples.min() >= x_m

    def test_heavy_tail(self):
        rng = spawn_rng(2, "pareto-test")
        samples = pareto_sojourns(rng, alpha=1.2, mean=10.0,
                                  size=100_000)
        assert samples.max() > 50 * samples.mean()

    def test_validation(self):
        rng = spawn_rng(0, "x")
        with pytest.raises(ValueError):
            pareto_sojourns(rng, alpha=1.0, mean=1.0, size=1)
        with pytest.raises(ValueError):
            pareto_sojourns(rng, alpha=1.5, mean=0.0, size=1)


class TestOnOff:
    def test_taqqu_formula(self):
        assert taqqu_hurst(1.5) == pytest.approx(0.75)
        assert taqqu_hurst(1.2) == pytest.approx(0.9)
        with pytest.raises(ValueError):
            taqqu_hurst(2.5)

    def test_mean_rate_duty_cycle(self):
        source = OnOffSource(mean_on=5.0, mean_off=15.0, peak_rate=2.0)
        assert source.mean_rate() == pytest.approx(0.5)

    def test_activity_bounded_by_peak(self):
        source = OnOffSource(peak_rate=3.0, seed=1)
        work = source.activity(2000)
        assert (work <= 3.0 + 1e-9).all()
        assert (work >= 0).all()

    def test_activity_mean_close_to_expected(self):
        source = OnOffSource(
            alpha_on=1.9, alpha_off=1.9, mean_on=10.0, mean_off=10.0,
            peak_rate=1.0, seed=2,
        )
        work = source.activity(60_000)
        assert work.mean() == pytest.approx(0.5, abs=0.1)

    def test_aggregate_scales_with_sources(self):
        small = aggregate_onoff_trace(5, 4000, seed=0)
        large = aggregate_onoff_trace(20, 4000, seed=0)
        assert large.mean() > 2 * small.mean()

    def test_validation(self):
        with pytest.raises(ValueError):
            OnOffSource(mean_on=0.0)
        with pytest.raises(ValueError):
            aggregate_onoff_trace(0, 100)

    @pytest.mark.parametrize("alphas", [{"alpha_on": 0.9},
                                        {"alpha_off": 1.0}])
    def test_tail_index_checked_up_front(self, alphas):
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            OnOffSource(**alphas)

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError, match="n_slots must be non-negative"):
            aggregate_onoff_trace(2, -1)
        with pytest.raises(ValueError, match="n_slots must be non-negative"):
            OnOffSource().activity(-1)


class TestMarkovian:
    def test_poisson_mean(self):
        trace = poisson_trace(100_000, mean_rate=4.0, seed=0)
        assert trace.mean() == pytest.approx(4.0, rel=0.05)
        assert trace.var() == pytest.approx(4.0, rel=0.1)

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            poisson_trace(10, mean_rate=-1.0)

    def test_mmpp_stationary_fraction(self):
        mmpp = MMPP2(p_low_to_high=0.1, p_high_to_low=0.4)
        assert mmpp.stationary_high_fraction() == pytest.approx(0.2)

    def test_mmpp_mean_rate(self):
        mmpp = MMPP2(rate_low=1.0, rate_high=9.0,
                     p_low_to_high=0.1, p_high_to_low=0.4, seed=1)
        trace = mmpp.trace(200_000)
        assert trace.mean() == pytest.approx(mmpp.mean_rate(), rel=0.05)

    def test_mmpp_overdispersed(self):
        mmpp = MMPP2(rate_low=1.0, rate_high=20.0, seed=2)
        trace = mmpp.trace(50_000)
        assert trace.var() > 1.5 * trace.mean()  # burstier than Poisson

    def test_mmpp2_trace_normalized(self):
        trace = mmpp2_trace(100_000, mean_rate=6.0, burstiness=8.0,
                            seed=3)
        assert trace.mean() == pytest.approx(6.0, rel=0.05)

    def test_mmpp_validation(self):
        with pytest.raises(ValueError):
            MMPP2(rate_low=-1.0)
        with pytest.raises(ValueError):
            MMPP2(p_low_to_high=0.0)
        with pytest.raises(ValueError):
            mmpp2_trace(10, mean_rate=1.0, burstiness=0.5)
