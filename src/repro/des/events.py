"""Core event types of the discrete-event simulation kernel.

The kernel follows the classical generator-process design: model processes
are Python generators that ``yield`` events; the environment resumes them
when those events are processed.  The public surface mirrors a small subset
of SimPy (which is not available in this environment), so models read
familiarly:

>>> from repro.des import Environment
>>> def proc(env, log):
...     yield env.timeout(5)
...     log.append(env.now)
>>> env = Environment()
>>> log = []
>>> p = env.process(proc(env, log))
>>> env.run()
>>> log
[5.0]
"""

from __future__ import annotations

from math import inf
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.environment import Environment

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Condition",
    "AnyOf",
    "AllOf",
]

#: Sentinel for "event has no value yet".
PENDING = object()

#: Scheduling priorities; urgent events at equal times run first.
URGENT = 0
NORMAL = 1


class Event:
    """A happening at a point in simulated time.

    Events move through three states: *pending* (created), *triggered*
    (given a value and placed in the event queue) and *processed* (its
    callbacks have run).  Processes wait for events by yielding them.

    An event whose outcome is decided when it is created, and that no
    callback waits on yet, skips the queue: it is created processed
    (value set, ``callbacks`` ``None``) and a process that yields it
    carries on within the same step.  Such are a grant on a free
    resource, a get from a non-empty store, a put into a store with
    room, and the normal end of a process that nobody waits on.
    Failures are always queued, so an unhandled one still raises from
    :meth:`~repro.des.environment.Environment.run`.

    Event records are slab-style: every class in the hierarchy
    declares ``__slots__``, so instances carry no ``__dict__`` — the
    five kernel fields live at fixed offsets, which makes the
    per-event allocation smaller and attribute access on the hot path
    cheaper.  Subclasses must declare their own ``__slots__`` (an
    empty tuple when they add no fields).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callables invoked with the event when it is processed; ``None``
        #: once processing has happened.
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = PENDING
        self._ok: bool | None = None
        #: A failed event whose exception was delivered to a handler is
        #: "defused"; un-defused failures crash the simulation run.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued for processing."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self.triggered:
            raise RuntimeError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception if it failed)."""
        if self._value is PENDING:
            raise RuntimeError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._schedule_fast(self, env._now)
        return self

    def _complete(self, value: Any) -> None:
        """Succeed with ``value`` and mark the event processed at once.

        For an outcome decided when the event is created, before any
        callback can wait on it: the event never enters the queue.
        """
        self._ok = True
        self._value = value
        self.callbacks = None

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    ``delay`` must be finite and non-negative — NaN and ``inf`` raise
    ``ValueError`` (a chained ``0 <= delay < inf`` comparison, which
    NaN fails by comparing false against everything; a bare
    ``delay < 0`` guard would silently admit it and poison the queue
    order).  This is the hottest allocation in every model
    (``env.timeout()``), so the constructor initialises the event
    fields inline and schedules through the pre-validated
    ``_schedule_fast`` path instead of ``Event.__init__`` +
    ``Environment.schedule``.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not 0.0 <= delay < inf:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            raise ValueError(f"non-finite delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay = float(delay)
        env._schedule_fast(self, env._now + delay)


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]


class Process(Event):
    """Wraps a generator and drives it through the event queue.

    A ``Process`` is itself an event that triggers when the generator
    terminates, so processes can wait for each other by yielding the
    process object.  A normal end that no callback waits on is
    complete at once and never enters the event queue.  One process is
    spawned per simulated activity (per packet in the NoC models), so
    the constructor sets the event fields inline like :class:`Timeout`
    does.
    """

    __slots__ = ("_generator", "_name", "_trace_id", "_target")

    def __init__(self, env: "Environment", generator):
        if type(generator) is not GeneratorType and (
                not hasattr(generator, "send")
                or not hasattr(generator, "throw")):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        try:
            self._name = generator.__name__
        except AttributeError:
            self._name = str(generator)
        tracer = env._tracer
        if tracer is not None:
            self._trace_id = tracer.next_id()
            tracer.emit(
                env.now, "process-start", self._name, id=self._trace_id,
            )
        else:
            self._trace_id = None
        # Bootstrap: an urgent, already-successful event resumes the
        # generator for the first time at the current simulation instant.
        init = Event.__new__(Event)
        init.env = env
        init.callbacks = [self._resume]
        init._value = None
        init._ok = True
        init._defused = False
        env._schedule_fast(init, env._now, URGENT)
        self._target: Event | None = init

    @property
    def name(self) -> str:
        """The wrapped generator's function name (cached: profilers
        read it on every kernel step)."""
        return self._name

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is abandoned (the process is
        detached from it); the generator decides how to continue.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be "
                               "interrupted")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.env.schedule(event, priority=URGENT)
        self._target = None

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value of ``event``."""
        env = self.env
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_target = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_target = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                if self._trace_id is not None and env._tracer is not None:
                    env._tracer.emit(
                        env._now, "process-end", self._name,
                        id=self._trace_id, ok=True,
                    )
                if self.callbacks:
                    env._schedule_fast(self, env._now)
                else:
                    # Nobody waits on this end: it is complete now.
                    self.callbacks = None
                break
            except BaseException as error:
                self._ok = False
                self._value = error
                if self._trace_id is not None and env._tracer is not None:
                    env._tracer.emit(
                        env._now, "process-end", self._name,
                        id=self._trace_id, ok=False,
                        error=type(error).__name__,
                    )
                env._schedule_fast(self, env._now)
                break

            if not isinstance(next_target, Event):
                env._active_process = None
                raise TypeError(
                    f"process yielded {next_target!r}, which is not an Event"
                )
            if next_target.env is not env:
                env._active_process = None
                raise ValueError(
                    "process yielded an event from a different environment"
                )
            callbacks = next_target.callbacks
            if callbacks is not None:
                # Event still pending or queued: wait for it.
                callbacks.append(self._resume)
                self._target = next_target
                break
            # Event already processed: feed its value back immediately.
            event = next_target
        env._active_process = None

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        state = "alive" if self.is_alive else "dead"
        return f"<Process {name} {state}>"


class Condition(Event):
    """An event triggered by a combination of other events.

    ``evaluate(events, count)`` decides, given the number of successfully
    processed constituents, whether the condition holds.  The condition's
    value is a dict mapping each triggered constituent to its value.
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(
        self,
        env: "Environment",
        events: Iterable[Event],
        evaluate: Callable[[list[Event], int], bool],
    ):
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must share one environment")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict[Event, Any]:
        return {
            event: event._value
            for event in self._events
            if event.processed and event._ok
        }

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


class AnyOf(Condition):
    """Triggered as soon as any constituent event succeeds."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, lambda events, count: count >= 1)


class AllOf(Condition):
    """Triggered once every constituent event has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(
            env, events, lambda events, count: count == len(events)
        )
