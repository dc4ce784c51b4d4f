"""Tests for the TimeSeries instrument and the sim-time probe."""

import json
import math
import random

import pytest

from repro.des import Environment
from repro.obs import (
    MetricRegistry,
    Probe,
    ProbeSpec,
    TimeSeries,
    as_probe_spec,
    instrument,
)


def _series(**kwargs) -> TimeSeries:
    return TimeSeries("s", {}, **kwargs)


class TestTimeSeries:
    def test_records_bin_aggregates(self):
        series = _series()
        series.add(0.5, 10.0)
        series.add(0.5, 20.0)
        series.add(2.5, 5.0)
        points = series.points()
        assert len(points) == 2
        t0, count0, mean0, min0, max0 = points[0]
        assert count0 == 2
        assert mean0 == 15.0
        assert (min0, max0) == (10.0, 20.0)
        assert series.n_samples == 3
        assert series.last == 5.0

    def test_rejects_non_finite_time(self):
        series = _series()
        with pytest.raises(ValueError):
            series.add(math.nan, 1.0)
        with pytest.raises(ValueError):
            series.add(math.inf, 1.0)

    def test_drops_non_finite_values_silently(self):
        series = _series()
        series.add(1.0, math.nan)
        series.add(1.0, math.inf)
        assert series.n_samples == 0
        assert series.points() == []

    def test_downsampling_respects_budget(self):
        series = _series(max_bins=16, base_width=1.0)
        for i in range(1000):
            series.add(float(i), float(i))
        assert len(series.points()) <= 16
        assert series.n_samples == 1000
        # No mass lost: totals survive downsampling exactly.
        total = sum(p[1] * p[2] for p in series.points())
        assert total == pytest.approx(sum(range(1000)))

    def test_negative_times_bin_correctly(self):
        series = _series(max_bins=4, base_width=1.0)
        for t in (-7.0, -3.0, -1.0, 2.0, 5.0, 9.0, 11.0):
            series.add(t, 1.0)
        points = series.points()
        assert len(points) <= 4
        assert points[0][0] <= -7.0
        assert sum(p[1] for p in points) == 7

    def test_order_insensitive_serialization(self):
        # Exactly-representable times: the serialized form must not
        # depend on arrival order.
        samples = [(i / 8.0, float(i % 17)) for i in range(5000)]
        forward, backward = _series(max_bins=64), _series(max_bins=64)
        for t, v in samples:
            forward.add(t, v)
        for t, v in reversed(samples):
            backward.add(t, v)
        assert json.dumps(forward.to_dict(), sort_keys=True) == \
            json.dumps(backward.to_dict(), sort_keys=True)

    def test_split_merge_equals_sequential(self):
        samples = [(i / 4.0, float((i * 7) % 23)) for i in range(3000)]
        whole = _series(max_bins=32)
        for t, v in samples:
            whole.add(t, v)
        left, right = _series(max_bins=32), _series(max_bins=32)
        for t, v in samples[::2]:
            left.add(t, v)
        for t, v in samples[1::2]:
            right.add(t, v)
        left.merge_from(right)
        assert json.dumps(whole.to_dict(), sort_keys=True) == \
            json.dumps(left.to_dict(), sort_keys=True)

    def test_merge_into_empty_adopts_geometry(self):
        src = _series(max_bins=8, base_width=0.5)
        for i in range(100):
            src.add(float(i), 1.0)
        dst = TimeSeries("s", {})
        dst.merge_from(src)
        assert dst.max_bins == 8
        assert dst.base_width == 0.5
        assert dst.to_dict() == src.to_dict()

    def test_merge_rejects_mismatched_base_width(self):
        a = _series(base_width=1.0)
        b = _series(base_width=0.5)
        a.add(0.0, 1.0)
        b.add(0.0, 1.0)
        with pytest.raises(ValueError):
            a.merge_from(b)

    def test_registry_integration(self):
        registry = MetricRegistry()
        series = registry.timeseries("qos", scenario="stream")
        assert registry.timeseries("qos", scenario="stream") is series
        assert series.key == "qos{scenario=stream}"
        series.add(1.0, 0.9)
        snap = registry.snapshot()["qos{scenario=stream}"]
        assert snap["kind"] == "timeseries"
        assert snap["n_samples"] == 1

    def test_kind_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.timeseries("x")

    def test_validates_constructor_arguments(self):
        with pytest.raises(ValueError):
            _series(max_bins=1)
        with pytest.raises(ValueError):
            _series(base_width=0.0)
        with pytest.raises(ValueError):
            _series(base_width=math.inf)


class _DoublingSeries(TimeSeries):
    """Reference ladder: widen one level at a time, rebuilding the bins
    on every doubling."""

    def _shrink_to_budget(self):
        while len(self._bins) > self.max_bins:
            self._double()

    def _rebin(self, level, keys=None):
        while self.level < level:
            self._double()

    def _double(self):
        merged = {}
        for index, bin_ in self._bins.items():
            into = merged.get(index // 2)
            if into is None:
                merged[index // 2] = list(bin_)
            else:
                into[0] += bin_[0]
                into[1] += bin_[1]
                if bin_[2] < into[2]:
                    into[2] = bin_[2]
                if bin_[3] > into[3]:
                    into[3] = bin_[3]
        self._bins = merged
        self.level += 1


def _random_samples(rng, n):
    """Clustered and sparse times, some negative; values with signed
    zeros (whose min/max depend on merge order) and awkward sums."""
    samples = []
    for _ in range(n):
        t = rng.choice([rng.uniform(-3.0, 3.0), rng.uniform(0.0, 1e-4),
                        rng.randrange(-40, 2000) * 0.37,
                        rng.expovariate(0.01)])
        v = rng.choice([0.0, -0.0, 0.1, rng.uniform(-1e6, 1e6),
                        rng.random() * 1e-9])
        samples.append((t, v))
    return samples


class TestOneStepRebin:
    """Widening the bins in one step gives exactly the bins, floats and
    iteration order of the one-level-at-a-time ladder."""

    @staticmethod
    def _state(series):
        return (series.level, list(series._bins),
                json.dumps(series.to_dict(), sort_keys=True))

    def test_multi_level_rebin_sums_the_pairwise_tree(self):
        # Merging a coarser series widens four unit bins three levels
        # at once: the ladder adds (1 + e) + (e + e), where a
        # left-to-right fold ((1 + e) + e) + e rounds differently.
        e = 1e-16
        for cls in (TimeSeries, _DoublingSeries):
            fine = cls("s", {}, max_bins=4, base_width=1.0)
            for t, v in ((0.0, 1.0), (1.0, e), (2.0, e), (3.0, e)):
                fine.add(t, v)
            coarse = cls("s", {}, max_bins=4, base_width=1.0)
            for t in (16.0, 20.0, 24.0, 28.0, 32.0):
                coarse.add(t, 0.0)
            assert (fine.level, coarse.level) == (0, 3)
            fine.merge_from(coarse)
            assert fine.to_dict()["points"][0][2] == (1.0 + e) + (e + e)
        assert (1.0 + e) + (e + e) != ((1.0 + e) + e) + e

    @pytest.mark.parametrize("seed", range(12))
    def test_add_matches_the_doubling_ladder(self, seed):
        rng = random.Random(seed)
        max_bins = rng.choice([2, 3, 8, 64])
        fast, slow = _series(max_bins=max_bins), _DoublingSeries(
            "s", {}, max_bins=max_bins)
        for t, v in _random_samples(rng, 800):
            fast.add(t, v)
            slow.add(t, v)
            assert fast.level == slow.level
        assert self._state(fast) == self._state(slow)

    @pytest.mark.parametrize("seed", range(12))
    def test_merge_matches_the_doubling_ladder(self, seed):
        rng = random.Random(1000 + seed)
        max_bins = rng.choice([4, 16, 64])
        parts = []
        for cls in (TimeSeries, _DoublingSeries):
            part_rng = random.Random(seed)
            series = []
            for _ in range(4):
                one = cls("s", {}, max_bins=max_bins)
                for t, v in _random_samples(part_rng,
                                            part_rng.randrange(1, 400)):
                    one.add(t, v)
                series.append(one)
            parts.append(series)
        for fast, slow in zip(*parts):
            assert self._state(fast) == self._state(slow)
        fast_total, slow_total = parts[0][0], parts[1][0]
        for fast, slow in zip(parts[0][1:], parts[1][1:]):
            fast_total.merge_from(fast)
            slow_total.merge_from(slow)
            assert self._state(fast_total) == self._state(slow_total)


class TestProbeSpec:
    def test_coercions(self):
        assert as_probe_spec(None) is None
        assert as_probe_spec(False) is None
        assert as_probe_spec(True) == ProbeSpec()
        assert as_probe_spec(0.25).interval == 0.25
        spec = ProbeSpec(interval=2.0)
        assert as_probe_spec(spec) is spec
        probe = Probe(MetricRegistry(), spec)
        assert as_probe_spec(probe) is spec
        with pytest.raises(TypeError):
            as_probe_spec("0.5")

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            ProbeSpec(interval=0.0)
        with pytest.raises(ValueError):
            ProbeSpec(interval=-1.0)

    def test_round_trips_through_dict(self):
        spec = ProbeSpec(interval=0.5, metrics=("queue_len",),
                         kernel=False, prefix="p_")
        assert ProbeSpec.from_dict(spec.to_dict()) == spec


class TestProbe:
    def test_samples_kernel_and_metrics(self):
        registry = MetricRegistry()
        probe = Probe(registry, ProbeSpec(interval=1.0))

        def ticker(env):
            queue = registry.gauge("queue_len")
            for i in range(10):
                queue.set(float(i), env.now)
                yield env.timeout(0.5)

        with instrument(metrics=registry, probe=probe):
            env = Environment()
            env.process(ticker(env))
            env.run()
        assert probe.samples > 0
        kernel = registry.get("probe_kernel_events_executed", env="0")
        assert kernel is not None and kernel.n_samples > 0
        sampled = registry.get("probe_queue_len")
        assert sampled is not None and sampled.n_samples > 0

    def test_probe_never_schedules_events(self):
        registry = MetricRegistry()
        probe = Probe(registry, ProbeSpec(interval=0.1))

        def proc(env):
            yield env.timeout(5.0)

        with instrument(metrics=registry, probe=probe):
            env = Environment()
            env.process(proc(env))
            env.run()  # must terminate: the probe is passive
        assert env.now == 5.0

    def test_probe_prefixed_series_not_resampled(self):
        registry = MetricRegistry()
        probe = Probe(registry, ProbeSpec(interval=0.5))

        def proc(env):
            registry.counter("ticks").inc()
            for _ in range(6):
                yield env.timeout(0.5)
                registry.counter("ticks").inc()

        with instrument(metrics=registry, probe=probe):
            env = Environment()
            env.process(proc(env))
            env.run()
        names = {m.name for m in registry}
        assert "probe_ticks" in names
        assert "probe_probe_ticks" not in names
        assert not any(n.startswith("probe_probe_") for n in names)

    def test_metric_name_selection(self):
        registry = MetricRegistry()
        probe = Probe(registry, ProbeSpec(interval=0.5,
                                          metrics=("wanted",),
                                          kernel=False))

        def proc(env):
            registry.counter("wanted").inc()
            registry.counter("unwanted").inc()
            yield env.timeout(2.0)

        with instrument(metrics=registry, probe=probe):
            env = Environment()
            env.process(proc(env))
            env.run()
        assert registry.get("probe_wanted") is not None
        assert registry.get("probe_unwanted") is None

    def test_disabled_probe_costs_one_attribute(self):
        env = Environment()
        assert env.probe is None
        assert env._probe_next == math.inf
