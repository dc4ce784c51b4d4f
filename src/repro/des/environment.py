"""The simulation environment: clock, event queue and run loop."""

from __future__ import annotations

import math
import weakref
from heapq import heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.des.events import (
    NORMAL,
    AllOf,
    AnyOf,
    Event,
    Process,
    Timeout,
    Traversal,
)
from repro.obs.context import active_metrics, active_probe, active_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricRegistry
    from repro.obs.timeseries import Probe
    from repro.obs.trace import Tracer

__all__ = ["Environment", "EmptySchedule", "KernelCounters",
           "kernel_counters", "last_environment"]

_INF = math.inf


class EmptySchedule(Exception):
    """Raised when ``run(until=event)`` drains the queue before the event."""


class KernelCounters:
    """Cheap, always-on kernel performance counters.

    One instance (:func:`kernel_counters`) accumulates totals across
    every :class:`Environment` in the process; each environment also
    keeps its own copy, surfaced as :meth:`Environment.perf_stats`.
    The counters are plain integer increments on the schedule/step hot
    paths — no branches on instrumentation state — so they cost the
    same whether or not observability is enabled, and the perf guard
    (``benchmarks/bench_perf_guard.py``) can normalise wall time to a
    per-event cost instead of trusting raw timings.

    The counters are process-local: worker processes of
    :mod:`repro.parallel` accumulate into their *own* ``_KERNEL`` and
    ship :meth:`snapshot` dictionaries back to the parent, which folds
    them in with :meth:`merge` — without that, a fanned-out run would
    report near-zero kernel activity in the parent.

    **Reset semantics.**  Every counter — ``environments`` included —
    counts occurrences *since the last* :meth:`reset`.  An
    :class:`Environment` constructed before a ``reset()`` is not
    re-counted even if it is still alive and stepping afterwards (its
    post-reset schedule/step activity still counts; only the one-shot
    construction increment is forgotten).  Bench harnesses rely on
    exactly this: ``reset()`` then run then :meth:`snapshot` yields
    the cost of that run alone.
    """

    __slots__ = ("events_scheduled", "events_executed",
                 "peak_heap_depth", "environments")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (bench harnesses call this per run)."""
        self.events_scheduled = 0
        self.events_executed = 0
        self.peak_heap_depth = 0
        self.environments = 0

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy of the current totals."""
        return {
            "events_scheduled": self.events_scheduled,
            "events_executed": self.events_executed,
            "peak_heap_depth": self.peak_heap_depth,
            "environments": self.environments,
        }

    def merge(self, snapshot: dict[str, int]) -> None:
        """Fold a :meth:`snapshot` (e.g. shipped back from a worker
        process) into these totals.

        Additive counters (events scheduled/executed, environments)
        sum; ``peak_heap_depth`` is a high-water mark, so the merged
        value is the maximum of the two — a pool of shallow heaps is
        not one deep heap.
        """
        self.events_scheduled += int(snapshot.get("events_scheduled", 0))
        self.events_executed += int(snapshot.get("events_executed", 0))
        self.environments += int(snapshot.get("environments", 0))
        depth = int(snapshot.get("peak_heap_depth", 0))
        if depth > self.peak_heap_depth:
            self.peak_heap_depth = depth

    def __repr__(self) -> str:
        return (f"KernelCounters(scheduled={self.events_scheduled}, "
                f"executed={self.events_executed}, "
                f"peak_heap={self.peak_heap_depth}, "
                f"environments={self.environments})")


#: Process-wide totals; single-threaded like the simulations themselves.
_KERNEL = KernelCounters()


def kernel_counters() -> KernelCounters:
    """The process-wide :class:`KernelCounters` accumulator."""
    return _KERNEL


#: Single-slot weak reference to the most recently constructed
#: environment; lets out-of-band observers (the worker telemetry
#: sampler in :mod:`repro.parallel.live`) read sim-time progress
#: without keeping any environment alive or touching hot paths.
_LAST_ENV: list = [None]


def last_environment() -> "Environment | None":
    """Most recently constructed :class:`Environment`, if alive.

    Purely observational — reading it never changes a seeded result.
    Returns ``None`` before the first construction or after the last
    environment was garbage-collected.
    """
    ref = _LAST_ENV[0]
    return ref() if ref is not None else None


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float in model units (the models in this repository use
    seconds unless stated otherwise).  Events scheduled at equal times are
    ordered by priority, then insertion order, which makes every run with
    the same seed exactly reproducible: the queue is a binary heap
    (:mod:`heapq`) of ``(time, priority, seq, event)`` tuples and ``seq``
    is unique, so tuple comparison never reaches the event and the
    execution order is a property of the entries alone.

    Examples
    --------
    >>> env = Environment()
    >>> def pinger(env, log):
    ...     while env.now < 3:
    ...         yield env.timeout(1)
    ...         log.append(env.now)
    >>> log = []
    >>> _ = env.process(pinger(env, log))
    >>> env.run(until=10)
    >>> log
    [1.0, 2.0, 3.0]
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        *,
        tracer: "Tracer | None" = None,
        metrics: "MetricRegistry | None" = None,
        probe: "Probe | None" = None,
    ):
        self._now = float(initial_time)
        #: The event queue; its length is the number of pending events.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = count()
        self._next_seq = self._seq.__next__
        self._active_process: Process | None = None
        self._n_scheduled = 0
        self._n_executed = 0
        self._peak_heap = 0
        self._probe_next = _INF
        # Fused observability gate: the run loop pays exactly one float
        # comparison per event (``event_time >= self._hook_next``).
        # -inf when a tracer is attached (every step traces), the next
        # probe due-time when only a probe is attached, +inf when
        # neither.
        self._hook_next = _INF
        self._tracer: "Tracer | None" = None
        self._emit_schedule = False
        _KERNEL.environments += 1
        _LAST_ENV[0] = weakref.ref(self)
        #: Optional :class:`~repro.obs.trace.Tracer`; when ``None``
        #: (the default outside :func:`repro.obs.instrument` blocks)
        #: the kernel hot path carries no tracer branches at all —
        #: only the fused ``_hook_next`` comparison.
        self.tracer = tracer if tracer is not None else active_tracer()
        #: Optional :class:`~repro.obs.metrics.MetricRegistry` that
        #: resources/stores built on this environment report through.
        self.metrics = (metrics if metrics is not None
                        else active_metrics())
        #: Optional :class:`~repro.obs.timeseries.Probe` that snapshots
        #: KPI time series at a sim-time interval.  The hot-path cost
        #: when absent is the shared ``_hook_next`` comparison:
        #: ``_probe_next`` stays ``inf`` and the sample branch never
        #: runs.
        self.probe = probe if probe is not None else active_probe()
        if self.probe is not None:
            self._probe_next = self.probe.attach(self)
            self._refresh_hook_gate()

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def tracer(self) -> "Tracer | None":
        """Optional tracer; assigning one re-derives the cached hook
        gates (``_hook_next``, schedule-emit flag) so the hot path
        stays a single comparison."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: "Tracer | None") -> None:
        self._tracer = tracer
        self._emit_schedule = (tracer is not None
                               and tracer.wants_schedule)
        self._refresh_hook_gate()

    def _refresh_hook_gate(self) -> None:
        """Recompute the fused per-step hook threshold."""
        self._hook_next = (-_INF if self._tracer is not None
                           else self._probe_next)

    # ------------------------------------------------------------------
    # Event creation
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Return a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def traverse(self, path, hold: float, *, value: Any = None,
                 name: str = "traverse",
                 done: Callable[[Any, Any], None] | None = None
                 ) -> Traversal:
        """Start a :class:`~repro.des.events.Traversal` that holds each
        resource of ``path`` in turn for ``hold`` time units."""
        return Traversal(self, path, hold, value=value, name=name,
                         done=done)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` succeeds."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have succeeded."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and stepping
    # ------------------------------------------------------------------
    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Queue ``event`` for processing ``delay`` units from now.

        ``delay`` must be finite and non-negative.  NaN is rejected
        explicitly: it compares false against everything, so a
        ``delay < 0`` guard alone would admit it and the NaN timestamp
        would then poison the queue order nondeterministically (every
        comparison involving the entry is false, so *where* it
        surfaces in the heap depends on its layout).  ``+inf`` is
        rejected for the same reason it is useless: the event could
        never fire, but would pin ``peek()`` and corrupt the clock if
        it ever drained.
        """
        if not 0.0 <= delay < _INF:
            if delay < 0.0:
                raise ValueError(f"negative delay {delay}")
            raise ValueError(f"non-finite delay {delay}")
        self._schedule_fast(event, self._now + delay, priority)

    def _schedule_fast(self, event: Event, time: float,
                       priority: int = NORMAL) -> None:
        """Queue ``event`` at the *absolute*, pre-validated ``time``.

        The one place that pushes, counts and traces a queue entry.
        Kernel code that already knows the delay is valid calls it
        directly: :class:`~repro.des.events.Timeout` after validating
        its delay once, and zero-delay triggers (``Event.succeed``,
        resource grants, the process bootstrap) with ``env._now``.
        """
        heap = self._heap
        heappush(heap, (time, priority, self._next_seq(), event))
        self._n_scheduled += 1
        _KERNEL.events_scheduled += 1
        pending = len(heap)
        if pending > self._peak_heap:
            self._peak_heap = pending
            if pending > _KERNEL.peak_heap_depth:
                _KERNEL.peak_heap_depth = pending
        if self._emit_schedule:
            self._tracer.emit(
                self._now, "schedule", type(event).__name__,
                at=time, priority=priority,
            )

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        return self._heap[0][0] if self._heap else _INF

    def _fire_hooks(self, event_time: float, event: Event) -> None:
        """Cold half of the fused observability gate.

        Runs only when ``event_time >= self._hook_next``: samples the
        probe if due (before tracing, preserving the historical order)
        and emits the step trace record with process attribution.
        """
        if event_time >= self._probe_next:
            # Passive sim-time probe: snapshots metrics, schedules
            # nothing, so it can never affect event order or keep
            # run(until=None) alive.
            self._probe_next = self.probe.sample(self, event_time)
            if self._tracer is None:
                self._hook_next = self._probe_next
        tracer = self._tracer
        if tracer is not None:
            # Attribute the step to every process the event resumes
            # (their _resume bound methods sit in the callback list),
            # so profilers can charge wall time to simulated
            # processes.  Fan-in events (two processes waiting on one
            # event, AnyOf/AllOf joins) resume several at once; the
            # step belongs to all of them, not just the first.
            owners: list[str] = []
            for callback in event.callbacks or ():
                bound = getattr(callback, "__self__", None)
                if isinstance(bound, Process):
                    owners.append(bound.name)
            if not owners:
                tracer.emit(
                    event_time, "step", type(event).__name__,
                    ok=event._ok, pending=len(self._heap),
                )
            elif len(owners) == 1:
                tracer.emit(
                    event_time, "step", type(event).__name__,
                    ok=event._ok, pending=len(self._heap),
                    proc=owners[0],
                )
            else:
                tracer.emit(
                    event_time, "step", type(event).__name__,
                    ok=event._ok, pending=len(self._heap),
                    proc=owners[0], procs=tuple(owners),
                )

    def step(self) -> None:
        """Process exactly one event (the earliest scheduled one)."""
        if not self._heap:
            raise EmptySchedule("no more events")
        event_time, _, _, event = heappop(self._heap)
        self._now = event_time
        self._n_executed += 1
        _KERNEL.events_executed += 1
        if event_time >= self._hook_next:
            self._fire_hooks(event_time, event)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            # Nobody handled the failure: surface it to the caller of run().
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            * ``None`` — run until the event queue is exhausted.
            * a number — process every event scheduled at or before that
              time, then set the clock to it.
            * an :class:`~repro.des.events.Event` — run until that event
              has been processed and return its value.

        Notes
        -----
        **Numeric horizons are closed (inclusive).**  ``run(until=t)``
        executes every event with timestamp ``<= t`` — including events
        scheduled *exactly at* ``t``, and events that executing them
        schedules at ``t`` — then sets the clock to exactly ``t``.
        This deliberately diverges from SimPy, whose stop event at
        ``t`` preempts same-time normal events (effectively a strict
        ``< t`` horizon): a multimedia model told to "simulate 100
        seconds" should see the frame that arrives at 100.0.  The
        choice makes the horizon **idempotent and compositional**:
        calling ``run(until=t)`` again is a no-op (everything at ``t``
        already ran), and ``run(until=a); run(until=b)`` processes the
        same events as ``run(until=b)`` for ``a <= b``.  An event one
        ulp after the horizon (``math.nextafter(t, inf)``) stays
        queued.  See ``docs/des_kernel.md`` ("Horizon boundary") and
        ``tests/des/test_run_until_boundary.py`` for the contract.

        **Non-finite horizons.**  ``run(until=float('nan'))`` raises
        ``ValueError``: NaN slips past an ordering guard (every
        comparison with NaN is false), would process nothing, and
        would silently set the clock to NaN — poisoning all subsequent
        scheduling.  ``run(until=math.inf)`` is legal and equivalent
        to ``run()``: the queue drains and the clock stops at the last
        executed event (it is *not* set to infinity, preserving
        idempotence and the ability to keep scheduling afterwards).
        """
        if until is None:
            horizon = _INF
        elif isinstance(until, Event):
            if until.env is not self:
                raise ValueError(
                    "run(until=event) got an event from a different "
                    "environment"
                )
            if until.processed:
                return until.value
            while self._heap:
                self.step()
                if until.processed:
                    return until.value
            raise EmptySchedule(
                "event queue drained before the target event triggered"
            )
        else:
            horizon = float(until)
            if math.isnan(horizon):
                raise ValueError("run(until=nan): horizon must be a "
                                 "number, not NaN")
            if horizon < self._now:
                raise ValueError(
                    f"cannot run until {horizon}, clock already at "
                    f"{self._now}"
                )

        # The fused hot loop.  Mirrors step() exactly (keep the two in
        # sync); inlined here so the per-event cost is one heappop,
        # the counter increments and a single hook comparison.
        heap = self._heap
        kernel = _KERNEL
        while heap and heap[0][0] <= horizon:
            event_time, _, _, event = heappop(heap)
            self._now = event_time
            self._n_executed += 1
            kernel.events_executed += 1
            if event_time >= self._hook_next:
                self._fire_hooks(event_time, event)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event._defused:
                raise event._value
        if horizon < _INF:
            self._now = horizon
        return None

    def perf_stats(self) -> dict[str, int | float]:
        """This environment's kernel performance counters.

        Always on and observation-free: the counters are incremented
        unconditionally on the schedule/step paths, so reading them
        never changes a seeded result.  Process-wide totals across all
        environments are available from :func:`kernel_counters`.
        """
        return {
            "events_scheduled": self._n_scheduled,
            "events_executed": self._n_executed,
            "peak_heap_depth": self._peak_heap,
            "pending": len(self._heap),
            "now": self._now,
        }

    def __repr__(self) -> str:
        return f"Environment(now={self._now}, pending={len(self._heap)})"
