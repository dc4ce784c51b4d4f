"""Out-of-band telemetry: heartbeats, sweep view, live rendering.

A replicated sweep is a black box until it finishes unless the workers
say something while running.  :class:`TelemetrySampler` is a daemon
thread inside each worker that periodically reads the process-local
:func:`~repro.des.kernel_counters` and the most recently constructed
environment's clock (:func:`~repro.des.last_environment`) and emits
small *telemetry frames*.  The supervisor ships them to the parent
over the existing result pipe (tagged ``("telemetry", frame)``, so
they can never be mistaken for a result) and forwards them — together
with lifecycle events (start/done/retry/failed) — to an ``on_event``
callback.

Everything here is **observational**: frames are wall-clock progress
gossip that never reaches the merged payload, so the deterministic-
merge contract is untouched — asserted by the live-on vs. live-off
equivalence test in ``tests/parallel/test_telemetry.py``.

:class:`SweepView` is the standard ``on_event`` consumer: it keeps
per-replica state and renders compact progress lines (the CLI's
``--live`` mode) to a stream.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, TextIO

from repro.des import kernel_counters, last_environment

__all__ = ["TelemetrySampler", "SweepView", "ReplicaView",
           "DEFAULT_TELEMETRY_INTERVAL"]

#: Wall-clock seconds between telemetry frames.
DEFAULT_TELEMETRY_INTERVAL = 1.0


class TelemetrySampler(threading.Thread):
    """Daemon thread emitting progress frames at a wall interval.

    Each frame carries wall-clock elapsed seconds, the sampled
    environment's sim-time (``None`` before the first environment
    exists), cumulative kernel counters and the events/sec rate since
    the previous frame.  Reading the counters and a weakly-referenced
    environment clock is safe from a thread: both are plain attribute
    reads that never mutate simulation state.
    """

    def __init__(self, emit: Callable[[dict[str, Any]], None],
                 interval: float = DEFAULT_TELEMETRY_INTERVAL,
                 stop: threading.Event | None = None):
        super().__init__(daemon=True, name="repro-telemetry")
        if not interval > 0:
            raise ValueError(f"telemetry interval must be positive, "
                             f"got {interval}")
        self._emit = emit
        self.interval = float(interval)
        # Not named ``_stop``: threading.Thread uses that attribute
        # internally and shadowing it breaks join()/is_alive().
        self._halt = stop if stop is not None else threading.Event()

    def stop(self, join_timeout: float | None = 2.0) -> None:
        """Signal the thread to exit and (briefly) wait for it."""
        self._halt.set()
        if join_timeout is not None and self.is_alive():
            self.join(join_timeout)

    def frame(self, *, wall: float, last: tuple[int, float]
              ) -> tuple[dict[str, Any], tuple[int, float]]:
        """Build one telemetry frame; returns it plus the new
        ``(events_executed, wall)`` baseline for the rate."""
        counters = kernel_counters()
        executed = counters.events_executed
        last_executed, last_wall = last
        span = wall - last_wall
        rate = (executed - last_executed) / span if span > 0 else 0.0
        env = last_environment()
        return ({
            "wall": wall,
            "sim_now": env.now if env is not None else None,
            "events_executed": executed,
            "events_scheduled": counters.events_scheduled,
            "events_per_sec": rate,
        }, (executed, wall))

    def run(self) -> None:  # pragma: no cover - exercised via workers
        start = time.perf_counter()
        last = (kernel_counters().events_executed, 0.0)
        # Event.wait is the pacing clock of an *observer* thread; it
        # never influences simulated time.
        while not self._halt.wait(self.interval):
            frame, last = self.frame(
                wall=time.perf_counter() - start, last=last)
            try:
                self._emit(frame)
            except Exception:
                return  # emission channel gone; stop quietly


@dataclass
class ReplicaView:
    """Latest known state of one replica in a live sweep."""

    index: int
    seed: int | None = None
    state: str = "pending"  # pending|running|done|failed
    attempt: int = 0
    sim_now: float | None = None
    events_executed: int = 0
    events_per_sec: float = 0.0
    wall: float = 0.0
    error: str | None = None


@dataclass
class SweepView:
    """Aggregated per-replica live state; the ``on_event`` consumer.

    Feed it supervisor events via :meth:`handle`; when ``stream`` is
    set it renders throttled one-line progress updates (lifecycle
    transitions always print, telemetry refreshes at most every
    ``min_refresh`` wall seconds).  Purely a display/inspection
    surface — nothing here feeds back into the sweep.
    """

    replicas: dict[int, ReplicaView] = field(default_factory=dict)
    stream: TextIO | None = None
    min_refresh: float = 0.5
    _last_render: float = field(default=-1.0, repr=False)

    def view(self, index: int) -> ReplicaView:
        if index not in self.replicas:
            self.replicas[index] = ReplicaView(index=index)
        return self.replicas[index]

    # -- event intake --------------------------------------------------
    def handle(self, kind: str, info: dict[str, Any]) -> None:
        """Process one supervisor event (`on_event` signature)."""
        view = self.view(int(info.get("index", -1)))
        if kind == "start":
            view.state = "running"
            view.seed = info.get("seed", view.seed)
            view.attempt = int(info.get("attempt", 1))
        elif kind == "telemetry":
            view.sim_now = info.get("sim_now", view.sim_now)
            view.events_executed = int(
                info.get("events_executed", view.events_executed))
            view.events_per_sec = float(
                info.get("events_per_sec", view.events_per_sec))
            view.wall = float(info.get("wall", view.wall))
        elif kind == "done":
            view.state = "done"
            view.wall = float(info.get("wall_seconds", view.wall))
        elif kind == "retry":
            view.state = "pending"
            view.error = info.get("error")
            view.attempt = int(info.get("attempt", view.attempt))
        elif kind == "failed":
            view.state = "failed"
            view.error = info.get("error")
        if self.stream is not None:
            self._render(kind, view)

    # -- summaries -----------------------------------------------------
    def counts(self) -> dict[str, int]:
        tally = {"pending": 0, "running": 0, "done": 0, "failed": 0}
        for view in self.replicas.values():
            tally[view.state] = tally.get(view.state, 0) + 1
        return tally

    def total_events_per_sec(self) -> float:
        return sum(v.events_per_sec
                   for v in self.replicas.values()
                   if v.state == "running")

    def status_line(self) -> str:
        tally = self.counts()
        total = len(self.replicas)
        parts = [f"{tally['done']}/{total} done"]
        if tally["running"]:
            parts.append(f"{tally['running']} running")
        if tally["pending"]:
            parts.append(f"{tally['pending']} pending")
        if tally["failed"]:
            parts.append(f"{tally['failed']} FAILED")
        rate = self.total_events_per_sec()
        if rate > 0:
            parts.append(f"{rate / 1000:.1f}k ev/s")
        return ", ".join(parts)

    # -- rendering -----------------------------------------------------
    def _render(self, kind: str, view: ReplicaView) -> None:
        now = time.perf_counter()
        throttled = (kind == "telemetry"
                     and self._last_render >= 0.0
                     and now - self._last_render < self.min_refresh)
        if throttled:
            return
        self._last_render = now
        if kind == "telemetry":
            sim = ("?" if view.sim_now is None
                   else f"{view.sim_now:.2f}")
            detail = (f"r{view.index} sim_t={sim} "
                      f"{view.events_per_sec / 1000:.1f}k ev/s")
        elif kind in ("retry", "failed"):
            detail = f"r{view.index} {kind}: {view.error}"
        else:
            detail = f"r{view.index} {view.state}"
        print(f"[live] {detail} | {self.status_line()}",
              file=self.stream, flush=True)
