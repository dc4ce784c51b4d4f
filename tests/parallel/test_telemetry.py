"""Out-of-band telemetry: sampler frames, the sweep view, and the
live-mode determinism contract (telemetry never perturbs the merge)."""

import io
import json

import pytest

from repro.parallel import (
    DEFAULT_TELEMETRY_INTERVAL,
    ReplicaView,
    SweepView,
    TelemetrySampler,
    run_replicated,
)


class TestTelemetrySampler:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            TelemetrySampler(lambda f: None, interval=0.0)

    def test_frame_shape_and_rate_baseline(self):
        sampler = TelemetrySampler(lambda f: None, interval=0.1)
        frame, baseline = sampler.frame(wall=2.0, last=(0, 0.0))
        assert set(frame) == {"wall", "sim_now", "events_executed",
                              "events_scheduled", "events_per_sec"}
        assert frame["wall"] == 2.0
        executed = frame["events_executed"]
        assert baseline == (executed, 2.0)
        # Rate is the delta since the previous frame over its span.
        frame2, _ = sampler.frame(wall=4.0, last=(executed, 2.0))
        assert frame2["events_per_sec"] == pytest.approx(
            (frame2["events_executed"] - executed) / 2.0)

    def test_zero_span_rate_is_zero(self):
        sampler = TelemetrySampler(lambda f: None)
        frame, _ = sampler.frame(wall=1.0, last=(0, 1.0))
        assert frame["events_per_sec"] == 0.0

    def test_stop_without_start_is_safe(self):
        sampler = TelemetrySampler(lambda f: None)
        sampler.stop()  # never started: must not raise

    def test_start_and_stop_joins_thread(self):
        frames = []
        sampler = TelemetrySampler(frames.append, interval=0.01)
        sampler.start()
        sampler.stop(join_timeout=5.0)
        assert not sampler.is_alive()

    def test_default_interval(self):
        assert DEFAULT_TELEMETRY_INTERVAL == 1.0
        sampler = TelemetrySampler(lambda f: None)
        assert sampler.interval == DEFAULT_TELEMETRY_INTERVAL


class TestSweepView:
    def test_lifecycle_transitions(self):
        view = SweepView()
        view.handle("start", {"index": 0, "seed": 11, "attempt": 1})
        assert view.replicas[0].state == "running"
        assert view.replicas[0].seed == 11
        view.handle("telemetry", {"index": 0, "sim_now": 2.5,
                                  "events_executed": 100,
                                  "events_per_sec": 50.0,
                                  "wall": 2.0})
        assert view.replicas[0].sim_now == 2.5
        assert view.replicas[0].events_per_sec == 50.0
        view.handle("done", {"index": 0, "wall_seconds": 3.0})
        assert view.replicas[0].state == "done"
        assert view.replicas[0].wall == 3.0

    def test_retry_and_failed(self):
        view = SweepView()
        view.handle("start", {"index": 1, "seed": 5, "attempt": 1})
        view.handle("retry", {"index": 1, "attempt": 2,
                              "error": "boom"})
        assert view.replicas[1].state == "pending"
        assert view.replicas[1].error == "boom"
        view.handle("failed", {"index": 1, "error": "boom again"})
        assert view.replicas[1].state == "failed"

    def test_counts_and_status_line(self):
        view = SweepView()
        view.handle("start", {"index": 0})
        view.handle("start", {"index": 1})
        view.handle("done", {"index": 0})
        assert view.counts() == {"pending": 0, "running": 1,
                                 "done": 1, "failed": 0}
        line = view.status_line()
        assert "1/2 done" in line
        assert "1 running" in line

    def test_total_rate_counts_running_only(self):
        view = SweepView()
        view.handle("start", {"index": 0})
        view.handle("telemetry", {"index": 0, "events_per_sec": 100.0})
        view.handle("start", {"index": 1})
        view.handle("telemetry", {"index": 1, "events_per_sec": 50.0})
        view.handle("done", {"index": 1})
        assert view.total_events_per_sec() == 100.0

    def test_stream_rendering(self):
        stream = io.StringIO()
        view = SweepView(stream=stream)
        view.handle("start", {"index": 0})
        view.handle("done", {"index": 0})
        out = stream.getvalue()
        assert "[live] r0 running" in out
        assert "[live] r0 done" in out

    def test_stream_renders_telemetry(self):
        stream = io.StringIO()
        view = SweepView(stream=stream, min_refresh=0.0)
        view.handle("start", {"index": 0, "seed": 1, "attempt": 1})
        view.handle("telemetry", {"index": 0, "sim_now": 1.0,
                                  "events_per_sec": 1000.0})
        last = stream.getvalue().splitlines()[-1]
        assert last.startswith("[live] r0 sim_t=1.00 1.0k ev/s | ")
        assert "1 running" in last

    def test_replica_view_defaults(self):
        replica = ReplicaView(index=3)
        assert replica.state == "pending"
        assert replica.attempt == 0
        assert replica.error is None


class TestLiveReplication:
    def test_events_delivered_in_order(self):
        events = []
        result = run_replicated(
            "e14", replicas=2, workers=2, telemetry=0.05,
            on_event=lambda kind, info: events.append((kind, info)))
        assert result.report.replication["replicas"] == 2
        kinds = [k for k, _ in events]
        assert kinds.count("start") == 2
        assert kinds.count("done") == 2
        started = {info["index"] for k, info in events if k == "start"}
        assert started == {0, 1}
        for kind, info in events:
            if kind == "telemetry":
                assert "events_executed" in info
                assert "index" in info

    def test_live_mode_does_not_change_stripped_payload(self):
        plain = run_replicated("e14", replicas=2, workers=2)
        stream = io.StringIO()
        live = run_replicated(
            "e14", replicas=2, workers=2, telemetry=0.05,
            on_event=SweepView(stream=stream).handle)
        assert (json.dumps(plain.strip_timings(), sort_keys=True)
                == json.dumps(live.strip_timings(), sort_keys=True))

    def test_on_event_exceptions_are_swallowed(self):
        def explode(kind, info):
            raise RuntimeError("observer crashed")

        result = run_replicated("e14", replicas=2, workers=1,
                                on_event=explode)
        assert result.report.replication["replicas"] == 2
