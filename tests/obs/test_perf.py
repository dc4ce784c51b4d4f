"""Tests for :mod:`repro.obs.perf`: the profiler."""

from __future__ import annotations

import pytest

from repro.des import Environment, kernel_counters
from repro.obs.perf import (
    Hotspot,
    Profiler,
    WallAttributionTracer,
    collapse_stats,
)
from repro.obs.trace import Tracer


def _two_process_sim(n: int = 50):
    """A tiny deterministic workload with two named processes."""
    env = Environment()

    def producer(env):
        for _ in range(n):
            yield env.timeout(1)

    def consumer(env):
        for _ in range(n):
            yield env.timeout(2)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    return env


# ----------------------------------------------------------------------
# Kernel counters
# ----------------------------------------------------------------------
class TestKernelCounters:
    def test_perf_stats_counts_events(self):
        env = _two_process_sim(n=10)
        stats = env.perf_stats()
        # 2 bootstrap events + 10 + 10 timeouts; nobody waits on the
        # two process ends, so they complete without a queue entry.
        assert stats["events_executed"] == 22
        assert stats["events_scheduled"] == 22
        assert stats["pending"] == 0
        assert stats["peak_heap_depth"] >= 2
        assert stats["now"] == 20.0

    def test_global_counters_accumulate_across_environments(self):
        counters = kernel_counters()
        counters.reset()
        _two_process_sim(n=5)
        _two_process_sim(n=5)
        snap = counters.snapshot()
        assert snap["environments"] == 2
        assert snap["events_executed"] == 2 * 12
        assert snap["events_executed"] == snap["events_scheduled"]

    def test_reset_zeroes_everything(self):
        counters = kernel_counters()
        _two_process_sim(n=3)
        counters.reset()
        assert counters.snapshot() == {
            "events_scheduled": 0, "events_executed": 0,
            "peak_heap_depth": 0, "environments": 0,
        }

    def test_counters_run_with_tracing_enabled(self):
        counters = kernel_counters()
        counters.reset()
        env = Environment(tracer=Tracer())

        def proc(env):
            yield env.timeout(1)

        env.process(proc(env))
        env.run()
        assert env.perf_stats()["events_executed"] == 2
        assert counters.events_executed == 2


# ----------------------------------------------------------------------
# Step attribution (kernel -> tracer contract)
# ----------------------------------------------------------------------
class TestStepAttribution:
    def test_step_events_carry_proc_owner(self):
        tracer = Tracer()
        env = Environment(tracer=tracer)

        def worker(env):
            yield env.timeout(1)

        env.process(worker(env))
        env.run()
        owners = [e.attrs.get("proc") for e in tracer.events
                  if e.kind == "step"]
        assert "worker" in owners

    def test_wants_schedule_false_skips_schedule_emits(self):
        tracer = WallAttributionTracer(max_events=None)
        env = Environment(tracer=tracer)

        def worker(env):
            yield env.timeout(1)

        env.process(worker(env))
        env.run()
        kinds = {e.kind for e in tracer.events}
        assert "schedule" not in kinds
        assert "step" in kinds

    def test_plain_tracer_still_sees_schedule_emits(self):
        tracer = Tracer()
        env = Environment(tracer=tracer)

        def worker(env):
            yield env.timeout(1)

        env.process(worker(env))
        env.run()
        assert "schedule" in tracer.counts()


# ----------------------------------------------------------------------
# WallAttributionTracer
# ----------------------------------------------------------------------
class TestWallAttributionTracer:
    def test_attributes_wall_time_to_processes(self):
        tracer = WallAttributionTracer()
        env = Environment(tracer=tracer)

        def spinner(env):
            for _ in range(20):
                sum(range(2000))
                yield env.timeout(1)

        env.process(spinner(env))
        env.run()
        assert "spinner" in tracer.wall_by_owner
        assert tracer.wall_by_owner["spinner"] > 0.0

    def test_default_stores_no_events(self):
        tracer = WallAttributionTracer()
        env = Environment(tracer=tracer)

        def worker(env):
            yield env.timeout(1)

        env.process(worker(env))
        env.run()
        assert len(tracer.events) == 0
        assert tracer.wall_by_owner  # attribution still happened

    def test_max_events_none_keeps_the_trace(self):
        tracer = WallAttributionTracer(max_events=None)
        env = Environment(tracer=tracer)

        def worker(env):
            yield env.timeout(1)

        env.process(worker(env))
        env.run()
        assert len(tracer.events) > 0


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    @pytest.mark.parametrize("mode", ["sample", "cprofile"])
    def test_profile_returns_report_with_result(self, mode):
        profiler = Profiler(mode=mode)
        report = profiler.profile(_two_process_sim, 200)
        assert report.mode == mode
        assert report.wall_seconds > 0.0
        assert isinstance(report.result, Environment)
        assert report.result.now == 400.0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown profiler mode"):
            Profiler(mode="perf")

    def test_cprofile_mode_has_exact_call_counts(self):
        report = Profiler(mode="cprofile").profile(_two_process_sim, 30)
        assert report.hotspots
        # The run loop is inlined in Environment.run; the per-event
        # marker in a profile is its heappop on the event queue.
        pop_rows = [s for s in report.hotspots
                    if s.function.endswith("heappop")]
        assert pop_rows, "the queue's heappop must appear in the profile"
        # 2 bootstraps + 30 + 30 timeouts (the waiter-less process ends
        # are never queued); the loop tests the heap before popping, so
        # there is no empty pop.
        assert pop_rows[0].calls == 62

    def test_cprofile_attributes_processes(self):
        report = Profiler(mode="cprofile").profile(_two_process_sim, 30)
        assert "producer" in report.wall_by_owner
        assert "consumer" in report.wall_by_owner

    def test_profiled_result_matches_unprofiled(self):
        from repro import experiments

        plain = experiments.run("e16", seed=0)
        profiled = Profiler().profile(
            experiments.run, "e16", seed=0).result
        assert profiled.metrics == plain.metrics

    def test_trace_false_skips_attribution(self):
        report = Profiler(mode="cprofile",
                          trace=False).profile(_two_process_sim, 10)
        assert report.wall_by_owner == {}

    def test_hotspot_and_owner_tables_render(self):
        report = Profiler(mode="cprofile").profile(_two_process_sim, 30)
        text = report.hotspot_table(n=5).render()
        assert "tottime_s" in text
        owners = report.owner_table().render()
        assert "producer" in owners

    def test_to_dict_is_json_ready(self):
        import json

        report = Profiler(mode="cprofile").profile(_two_process_sim, 10)
        digest = json.loads(json.dumps(report.to_dict()))
        assert digest["mode"] == "cprofile"
        assert digest["hotspots"]
        assert "wall_by_process" in digest


# ----------------------------------------------------------------------
# Collapsed stacks (flamegraph export)
# ----------------------------------------------------------------------
class TestCollapsedStacks:
    def test_folded_format(self, tmp_path):
        report = Profiler(mode="cprofile").profile(_two_process_sim,
                                                   100)
        text = report.collapsed_stacks()
        assert text, "collapsed output must not be empty"
        for line in text.strip().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert stack  # "a;b;c" path
        out = tmp_path / "profile.collapsed.txt"
        n_lines = report.write_collapsed(out)
        assert n_lines == len(text.strip().splitlines())
        assert out.read_text(encoding="utf-8") == text

    def test_collapse_stats_distributes_time(self):
        # Synthetic call graph: root (1s own) -> leaf (2s own).
        root = ("app.py", 1, "root")
        leaf = ("app.py", 9, "leaf")
        stats = {
            root: (1, 1, 1.0, 3.0, {}),
            leaf: (1, 1, 2.0, 2.0, {root: (1, 1, 2.0, 2.0)}),
        }
        folded = collapse_stats(stats)
        assert folded == {
            "app.py:1:root": pytest.approx(1.0),
            "app.py:1:root;app.py:9:leaf": pytest.approx(2.0),
        }

    def test_collapse_stats_cuts_recursion(self):
        func = ("app.py", 1, "recur")
        stats = {func: (5, 10, 1.0, 1.0, {func: (5, 5, 0.5, 0.5)})}
        folded = collapse_stats(stats)
        assert list(folded) == ["app.py:1:recur"]

    def test_hotspot_defaults(self):
        spot = Hotspot(function="f", tottime=0.5, cumtime=1.0)
        assert spot.calls is None
