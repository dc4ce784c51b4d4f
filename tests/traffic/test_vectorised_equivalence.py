"""Vectorised traffic code against the per-element loops it replaces.

``rs_hurst`` computes every block of one size row-wise in numpy,
``OnOffSource.activity`` draws its sojourns in chunks and fills slots
with array operations, ``MMPP2.trace`` derives its state path from the
switch uniforms and draws every count in one call, and
``simulate_trace_queue`` runs the Lindley recursion on Python floats.
Each test keeps the straightforward loop as an oracle and requires
bit-identical output and, where a generator is involved, the same
generator state afterwards.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic import (
    MMPP2,
    OnOffSource,
    aggregate_onoff_trace,
    fgn_trace,
    pareto_sojourns,
    poisson_trace,
    rs_hurst,
    simulate_trace_queue,
)
from repro.traffic import onoff
from repro.traffic.hurst import _block_sizes
from repro.utils.rng import spawn_rng


# -- oracles -------------------------------------------------------------
def oracle_rs_hurst(x):
    arr = np.asarray(x, dtype=float)
    log_sizes, log_rs = [], []
    for size in _block_sizes(arr.size):
        n_blocks = arr.size // size
        ratios = []
        for b in range(n_blocks):
            block = arr[b * size:(b + 1) * size]
            dev = block - block.mean()
            z = np.cumsum(dev)
            r = z.max() - z.min()
            s = block.std(ddof=0)
            if s > 0 and r > 0:
                ratios.append(r / s)
        if ratios:
            log_sizes.append(np.log(size))
            log_rs.append(np.log(np.mean(ratios)))
    if len(log_sizes) < 3:
        raise ValueError("not enough valid block sizes for R/S fit")
    slope, _ = np.polyfit(log_sizes, log_rs, 1)
    return float(slope)


def oracle_activity(source, n_slots):
    rng = source._rng
    work = np.zeros(n_slots)
    t = 0.0
    on = rng.random() < source.mean_on / (source.mean_on + source.mean_off)
    while t < n_slots:
        if on:
            duration = float(pareto_sojourns(
                rng, source.alpha_on, source.mean_on, 1)[0])
            start, end = t, min(t + duration, n_slots)
            first = int(start)
            last = int(np.ceil(end))
            for slot in range(first, min(last, n_slots)):
                overlap = min(end, slot + 1) - max(start, slot)
                if overlap > 0:
                    work[slot] += overlap * source.peak_rate
            t += duration
        else:
            t += float(pareto_sojourns(
                rng, source.alpha_off, source.mean_off, 1)[0])
        on = not on
    return work


def oracle_mmpp2_trace(mmpp, n_slots):
    rng = mmpp._rng
    counts = np.empty(n_slots)
    high = rng.random() < mmpp.stationary_high_fraction()
    switch_draws = rng.random(n_slots)
    for t in range(n_slots):
        rate = mmpp.rate_high if high else mmpp.rate_low
        counts[t] = rng.poisson(rate)
        if high:
            if switch_draws[t] < mmpp.p_hl:
                high = False
        elif switch_draws[t] < mmpp.p_lh:
            high = True
    return counts


def oracle_queue(arrivals, service_per_slot, buffer_size):
    arrivals = np.asarray(arrivals, dtype=float)
    n = arrivals.size
    occupancies = np.empty(n)
    q = lost = busy = 0.0
    for t in range(n):
        q += arrivals[t]
        if q > buffer_size:
            lost += q - buffer_size
            q = buffer_size
        drained = min(q, service_per_slot)
        busy += drained
        q -= drained
        occupancies[t] = q
    offered = float(arrivals.sum())
    loss = lost / offered if offered > 0 else 0.0
    return occupancies, loss, busy / (service_per_slot * n)


def assert_same_rs(x):
    try:
        expected = oracle_rs_hurst(x)
    except ValueError:
        try:
            rs_hurst(x)
        except ValueError:
            return
        raise AssertionError("oracle rejected a series rs_hurst accepted")
    assert rs_hurst(x) == expected


# -- rs_hurst ------------------------------------------------------------
class TestRsHurstMatchesBlockLoop:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(64, 4000), st.floats(0.55, 0.95),
           st.integers(0, 2**16))
    def test_fgn(self, n, hurst, seed):
        assert_same_rs(fgn_trace(n, hurst, mean_rate=1.0, seed=seed))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(64, 4000), st.floats(0.05, 20.0),
           st.integers(0, 2**16))
    def test_poisson(self, n, rate, seed):
        assert_same_rs(poisson_trace(n, rate, seed=seed))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(64, 3000), st.integers(1, 8),
           st.floats(1.1, 1.9), st.integers(0, 2**16))
    def test_onoff(self, n, n_sources, alpha, seed):
        assert_same_rs(aggregate_onoff_trace(n_sources, n, alpha=alpha,
                                             seed=seed))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(64, 3000), st.integers(1, 200),
           st.integers(0, 2**16))
    def test_constant_blocks(self, n, run_length, seed):
        # Piecewise-constant series: many blocks have s == 0 (and
        # r == 0), so the validity filter drops them.
        rng = spawn_rng(seed, "rs-constant")
        levels = rng.integers(0, 3, size=n // run_length + 1)
        assert_same_rs(np.repeat(levels, run_length)[:n].astype(float))

    def test_constant_blocks_hit_the_filter(self):
        x = np.repeat([0.0, 1.0], 512)
        x[:16] = np.arange(16.0)
        assert_same_rs(x)
        assert_same_rs(np.r_[np.zeros(900), np.arange(100.0)])


# -- on/off activity -------------------------------------------------------
class TestActivityMatchesSlotLoop:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 400), st.floats(1.05, 1.95),
           st.floats(1.05, 1.95),
           st.sampled_from([0.05, 0.3, 1.0, 5.0, 40.0, 2000.0]),
           st.sampled_from([0.05, 0.5, 3.0, 50.0]),
           st.floats(0.1, 10.0), st.integers(0, 2**16))
    def test_activity(self, n_slots, alpha_on, alpha_off, mean_on,
                      mean_off, peak_rate, seed):
        # Means from far below one slot (ON periods inside one slot)
        # to far beyond n_slots (periods cut at the horizon).
        def source():
            return OnOffSource(alpha_on=alpha_on, alpha_off=alpha_off,
                               mean_on=mean_on, mean_off=mean_off,
                               peak_rate=peak_rate, seed=seed)

        oracle, batched = source(), source()
        for _ in range(2):
            # The second call starts where the first left the generator.
            expected = oracle_activity(oracle, n_slots)
            got = batched.activity(n_slots)
            assert got.tobytes() == expected.tobytes()
            assert batched._rng.bit_generator.state == \
                oracle._rng.bit_generator.state

    @pytest.mark.parametrize("chunk", [1, 4, 5])
    def test_small_chunks(self, monkeypatch, chunk):
        # Many chunks per call, odd sizes flip the phase between them.
        monkeypatch.setattr(onoff, "_CHUNK", chunk)
        for seed in range(4):
            oracle = OnOffSource(mean_on=0.4, mean_off=2.0, seed=seed)
            batched = OnOffSource(mean_on=0.4, mean_off=2.0, seed=seed)
            expected = oracle_activity(oracle, 120)
            assert batched.activity(120).tobytes() == expected.tobytes()
            assert batched._rng.bit_generator.state == \
                oracle._rng.bit_generator.state

    def test_long_period_cut_at_horizon(self):
        # An ON period far longer than the horizon starting at slot 0.
        source = OnOffSource(mean_on=1e6, mean_off=1e-3, seed=1)
        oracle = OnOffSource(mean_on=1e6, mean_off=1e-3, seed=1)
        assert source.activity(50).tobytes() == \
            oracle_activity(oracle, 50).tobytes()


# -- MMPP2 ---------------------------------------------------------------
class TestMmppMatchesSlotLoop:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 600),
           st.sampled_from([0.0, 0.4, 3.0, 25.0]),
           st.sampled_from([0.0, 1.0, 12.0]),
           st.sampled_from([0.01, 0.05, 0.5, 1.0]),
           st.sampled_from([0.01, 0.2, 0.7, 1.0]),
           st.integers(0, 2**16))
    def test_trace(self, n_slots, rate_low, rate_high, p_lh, p_hl, seed):
        # p = 1 switches every slot; p_lh == p_hl toggles or keeps.
        def mmpp():
            return MMPP2(rate_low=rate_low, rate_high=rate_high,
                         p_low_to_high=p_lh, p_high_to_low=p_hl,
                         seed=seed)

        oracle, batched = mmpp(), mmpp()
        expected = oracle_mmpp2_trace(oracle, n_slots)
        got = batched.trace(n_slots)
        assert got.tobytes() == expected.tobytes()
        assert batched._rng.bit_generator.state == \
            oracle._rng.bit_generator.state


# -- trace queue -----------------------------------------------------------
class TestQueueMatchesSlotLoop:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2000), st.floats(0.2, 30.0),
           st.sampled_from([0.5, 3.0, 40.0, float("inf")]),
           st.integers(0, 2**16))
    def test_queue(self, n, service, buffer_size, seed):
        rng = spawn_rng(seed, "queue-oracle")
        # Idle slots, bursts above the buffer and exact-service slots.
        trace = rng.choice([0.0, service, 2.5 * service, 0.3], size=n) \
            * rng.random(n).round(1)
        expected, loss, utilization = oracle_queue(trace, service,
                                                   buffer_size)
        result = simulate_trace_queue(trace, service, buffer_size)
        assert result.occupancies.tobytes() == expected.tobytes()
        assert result.loss_fraction == loss
        assert result.utilization == utilization

    def test_strided_trace(self):
        trace = fgn_trace(4096, 0.8, 10.0, peakedness=0.4, seed=2)[::3]
        expected, loss, _ = oracle_queue(trace, 11.0, 30.0)
        result = simulate_trace_queue(trace, 11.0, buffer_size=30.0)
        assert result.occupancies.tobytes() == expected.tobytes()
        assert result.loss_fraction == loss
