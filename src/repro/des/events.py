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
    "Traversal",
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
    spawned per simulated activity, so :meth:`_start` sets the event
    fields inline like :class:`Timeout` does.
    """

    __slots__ = ("_generator", "_name", "_trace_id", "_target")

    def __init__(self, env: "Environment", generator):
        if type(generator) is not GeneratorType and (
                not hasattr(generator, "send")
                or not hasattr(generator, "throw")):
            raise TypeError(f"{generator!r} is not a generator")
        self._generator = generator
        try:
            name = generator.__name__
        except AttributeError:
            name = str(generator)
        self._start(env, name)

    def _start(self, env: "Environment", name: str) -> None:
        """Set the event fields, trace the start and queue the bootstrap.

        The bootstrap is an urgent, already-successful event that
        resumes the process for the first time at the current
        simulation instant.
        """
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._name = name
        tracer = env._tracer
        if tracer is not None:
            self._trace_id = tracer.next_id()
            tracer.emit(env.now, "process-start", name, id=self._trace_id)
        else:
            self._trace_id = None
        init = Event.__new__(Event)
        init.env = env
        init.callbacks = [self._resume]
        init._value = None
        init._ok = True
        init._defused = False
        env._schedule_fast(init, env._now, URGENT)
        self._target: Event | None = init

    def _end(self, env: "Environment", value: Any) -> None:
        """End successfully with ``value``.

        The end is queued when a callback waits on it; otherwise it is
        complete at once.
        """
        self._ok = True
        self._value = value
        if self._trace_id is not None and env._tracer is not None:
            env._tracer.emit(
                env._now, "process-end", self._name,
                id=self._trace_id, ok=True,
            )
        if self.callbacks:
            env._schedule_fast(self, env._now)
        else:
            self.callbacks = None

    def _end_failed(self, env: "Environment", error: BaseException) -> None:
        """End with ``error``; a failure is always queued."""
        self._ok = False
        self._value = error
        if self._trace_id is not None and env._tracer is not None:
            env._tracer.emit(
                env._now, "process-end", self._name,
                id=self._trace_id, ok=False,
                error=type(error).__name__,
            )
        env._schedule_fast(self, env._now)

    @property
    def name(self) -> str:
        """The wrapped generator's function name, or a traversal's
        ``name`` (cached: profilers read it on every kernel step)."""
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
                self._end(env, stop.value)
                break
            except BaseException as error:
                self._end_failed(env, error)
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
        state = "alive" if self.is_alive else "dead"
        return f"<{type(self).__name__} {self._name} {state}>"


class Traversal(Process):
    """A process that holds each resource of a path in turn.

    Does what the generator process

    .. code-block:: python

        for resource in path:
            with resource.request() as claim:
                yield claim
                yield env.timeout(hold)
        done(value, path)
        return value

    does, with the same events in the same order, the same resource
    metrics and the same trace records, but as a callback state
    machine: no generator, and one ``_resume`` call per event.  It is
    the store-and-forward packet of the NoC models.

    ``path`` is a sequence of resources, or a zero-argument callable
    that returns one at the first step (so an error in computing it
    fails the traversal, not its creation).  ``done``, if given, is
    called as ``done(value, path)`` after the last release.  An error
    or :class:`Interrupt` releases or withdraws the current claim and
    fails the traversal.
    """

    __slots__ = ("_path", "_hold", "_result", "_done", "_claim", "_index")

    def __init__(self, env: "Environment", path, hold: float, *,
                 value: Any = None, name: str = "traverse",
                 done: Callable[[Any, Any], None] | None = None):
        self._path = path
        self._hold = hold
        self._result = value
        self._done = done
        self._claim = None
        self._index = 0
        self._start(env, name)

    def _resume(self, event: Event) -> None:
        """Take one step: start, release after a hold and claim the next
        resource, or hold after a grant."""
        env = self.env
        env._active_process = self
        claim = self._claim
        try:
            if not event._ok:
                event._defused = True
                raise event._value
            if event is not claim:
                if claim is None:
                    path = self._path
                    if callable(path):
                        path = self._path = path()
                    index = 0
                else:
                    claim.resource.release(claim)
                    path = self._path
                    index = self._index + 1
                if index == len(path):
                    self._claim = None
                    if self._done is not None:
                        self._done(self._result, path)
                    self._end(env, self._result)
                    return
                self._claim = claim = path[index].request()
                self._index = index
                if claim.callbacks is not None:
                    claim.callbacks.append(self._resume)
                    self._target = claim
                    return
            # Granted, in place or from the queue: hold the resource.
            timeout = Timeout(env, self._hold)
            timeout.callbacks.append(self._resume)
            self._target = timeout
        except BaseException as error:
            # As in Process._resume: the failure is queued and, unless
            # a waiter handles it, raises from run().
            claim = self._claim
            if claim is not None:
                claim.resource.release(claim)
            self._end_failed(env, error)
        finally:
            env._active_process = None


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
