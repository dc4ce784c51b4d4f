"""Tests for Hurst estimators and the trace-driven queue (E2 core)."""

import numpy as np
import pytest

from repro.traffic import (
    FgnGenerator,
    aggregate_onoff_trace,
    aggregate_series,
    autocorrelation,
    fgn_trace,
    periodogram_hurst,
    poisson_trace,
    queue_tail,
    rs_hurst,
    simulate_trace_queue,
    taqqu_hurst,
    variance_time_hurst,
)
from repro.utils.rng import spawn_rng


class TestAutocorrelation:
    def test_lag_zero_one(self):
        rng = spawn_rng(0, "acf")
        assert autocorrelation(rng.random(100), 5)[0] == 1.0

    def test_white_noise_near_zero(self):
        rng = spawn_rng(1, "acf")
        rho = autocorrelation(rng.standard_normal(50_000), 10)
        assert np.abs(rho[1:]).max() < 0.03

    def test_validation(self):
        with pytest.raises(ValueError):
            autocorrelation([1.0, 2.0], 5)
        with pytest.raises(ValueError):
            autocorrelation(np.ones(100), 5)  # zero variance


class TestAggregateSeries:
    def test_block_means(self):
        agg = aggregate_series([1.0, 3.0, 5.0, 7.0], 2)
        assert agg == pytest.approx([2.0, 6.0])

    def test_remainder_dropped(self):
        agg = aggregate_series(np.arange(10.0), 3)
        assert agg.shape == (3,)

    def test_validation(self):
        with pytest.raises(ValueError):
            aggregate_series([1.0], 0)
        with pytest.raises(ValueError):
            aggregate_series([1.0], 5)


class TestHurstEstimators:
    """All three estimators must recover synthetic Hurst exponents."""

    @pytest.fixture(scope="class")
    def fgn_08(self):
        return FgnGenerator(hurst=0.8, seed=10).sample(2**15)

    @pytest.fixture(scope="class")
    def white(self):
        return FgnGenerator(hurst=0.5, seed=11).sample(2**15)

    def test_rs_recovers_08(self, fgn_08):
        assert rs_hurst(fgn_08) == pytest.approx(0.8, abs=0.1)

    def test_vt_recovers_08(self, fgn_08):
        assert variance_time_hurst(fgn_08) == pytest.approx(0.8, abs=0.1)

    def test_pg_recovers_08(self, fgn_08):
        assert periodogram_hurst(fgn_08) == pytest.approx(0.8, abs=0.1)

    def test_white_noise_near_half(self, white):
        assert rs_hurst(white) == pytest.approx(0.5, abs=0.1)
        assert variance_time_hurst(white) == pytest.approx(0.5, abs=0.1)
        assert periodogram_hurst(white) == pytest.approx(0.5, abs=0.1)

    def test_onoff_aggregate_is_lrd(self):
        trace = aggregate_onoff_trace(
            30, 20_000, alpha=1.4, seed=12
        )
        estimate = variance_time_hurst(trace)
        # Taqqu limit is asymptotic; allow a generous window but demand
        # clear long-range dependence.
        assert estimate > 0.65
        assert estimate == pytest.approx(taqqu_hurst(1.4), abs=0.2)

    def test_poisson_not_lrd(self):
        trace = poisson_trace(2**15, mean_rate=5.0, seed=13)
        assert variance_time_hurst(trace) == pytest.approx(0.5, abs=0.1)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            rs_hurst(np.ones(10))
        with pytest.raises(ValueError):
            variance_time_hurst(np.ones(10))
        with pytest.raises(ValueError):
            periodogram_hurst(np.ones(10))


class TestTraceQueue:
    def test_deterministic_underload_never_queues(self):
        result = simulate_trace_queue(np.full(100, 1.0),
                                      service_per_slot=2.0)
        assert result.mean_occupancy == 0.0
        assert result.loss_fraction == 0.0
        assert result.utilization == pytest.approx(0.5)

    def test_overload_fills_buffer(self):
        result = simulate_trace_queue(
            np.full(100, 2.0), service_per_slot=1.0, buffer_size=10.0
        )
        assert result.max_occupancy == pytest.approx(10.0, abs=1.0)
        assert result.loss_fraction > 0.3

    def test_work_conservation_lossless(self):
        rng = spawn_rng(3, "queue")
        trace = rng.random(1000) * 2.0
        result = simulate_trace_queue(trace, service_per_slot=1.5)
        served = result.utilization * 1.5 * trace.size
        assert served + result.occupancies[-1] == pytest.approx(
            trace.sum(), rel=1e-9
        )

    def test_burst_drains(self):
        trace = np.zeros(50)
        trace[0] = 10.0
        result = simulate_trace_queue(trace, service_per_slot=1.0)
        assert result.occupancies[0] == pytest.approx(9.0)
        assert result.occupancies[-1] == 0.0

    def test_survival_monotone(self):
        trace = fgn_trace(8192, 0.8, 10.0, peakedness=0.4, seed=14)
        result = simulate_trace_queue(trace, service_per_slot=12.0)
        tail = result.survival([0, 5, 10, 20, 40])
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_selfsimilar_tail_heavier_than_poisson(self):
        """The E2 headline: equal load, drastically different queues."""
        mean_rate, service = 10.0, 12.0
        ss = fgn_trace(2**14, 0.85, mean_rate, peakedness=0.4, seed=15)
        po = poisson_trace(2**14, mean_rate, seed=16)
        tail_ss = queue_tail(ss, service, [20.0])[0]
        tail_po = queue_tail(po, service, [20.0])[0]
        assert tail_ss > 50 * max(tail_po, 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_trace_queue([-1.0], 1.0)
        with pytest.raises(ValueError):
            simulate_trace_queue([1.0], 0.0)
        with pytest.raises(ValueError):
            simulate_trace_queue([1.0], 1.0, buffer_size=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_work_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            simulate_trace_queue([1.0, bad, 2.0], 1.0)

    def test_empty_trace(self):
        result = simulate_trace_queue([], 1.0)
        assert np.isnan(result.mean_occupancy)
        assert np.isnan(result.survival([0.0, 5.0])).all()
        assert result.survival([0.0, 5.0]).shape == (2,)
