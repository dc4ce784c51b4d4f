"""Shared, limited-capacity resources (servers, CPUs, links).

A :class:`Resource` is what a scheduler process contends for: requests are
granted in FIFO (or priority) order up to the resource capacity, and the
request object doubles as a context manager so model code reads:

>>> from repro.des import Environment, Resource
>>> env = Environment()
>>> cpu = Resource(env, capacity=1)
>>> def job(env, cpu, log, name):
...     with cpu.request() as req:
...         yield req
...         yield env.timeout(2)
...         log.append((name, env.now))
>>> log = []
>>> _ = env.process(job(env, cpu, log, 'a'))
>>> _ = env.process(job(env, cpu, log, 'b'))
>>> env.run()
>>> log
[('a', 2.0), ('b', 4.0)]
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import TYPE_CHECKING

from repro.des.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.environment import Environment
    from repro.obs.metrics import MetricRegistry

__all__ = ["Request", "Resource", "PriorityRequest", "PriorityResource"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    A request that finds a free slot and nobody queued is granted as it
    is created: it is already processed, never enters the event queue,
    and a process that yields it carries on within the same step.
    """

    # _requested_at is only assigned (and only read) when the owning
    # resource has a wait-time metric; the slot simply reserves it.
    __slots__ = ("resource", "_requested_at")

    def __init__(self, resource: "Resource"):
        # One per link claim on the NoC hot path: the event fields are
        # set inline rather than through Event.__init__.
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        if resource._m_wait is not None:
            self._requested_at = env._now
        resource._enqueue(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        if exc_type is None:
            self.resource.release(self)
            return False
        if exc_type is GeneratorExit:
            # The process generator is being closed, which in practice
            # means the garbage collector is finalizing a suspended
            # process of a finished simulation.  Drop the claim quietly:
            # a grant now would be recorded in the live metrics and
            # scheduled into a dead event queue.
            self.resource._discard(self)
        else:
            self.resource.release(self)
        return False

    def cancel(self) -> None:
        """Withdraw the claim — waiting or granted — from the resource.

        Alias of :meth:`Resource.release`, so that an interrupted
        process abandons a request the way it abandons a store get.
        """
        self.resource.release(self)


class Resource:
    """A FIFO resource with integer capacity.

    Attributes
    ----------
    users:
        Requests currently holding the resource.
    queue:
        Requests waiting to be granted.
    """

    def __init__(self, env: "Environment", capacity: int = 1, *,
                 name: str | None = None,
                 metrics: "MetricRegistry | None" = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self.name = name
        self.users: list[Request] = []
        self.queue: list[Request] = []
        # Metric handles, resolved once.  Anonymous resources share the
        # label "resource": their wait times and grants aggregate, but
        # a shared queue-length gauge would only show the queue of
        # whichever one granted last, so they get none.
        registry = metrics if metrics is not None \
            else getattr(env, "metrics", None)
        if registry is not None:
            label = name or "resource"
            self._m_wait = registry.histogram(
                "resource_wait_time", resource=label)
            self._m_queue = (None if name is None else registry.gauge(
                "resource_queue_len", resource=label))
            self._m_grants = registry.counter(
                "resource_grants", resource=label)
        else:
            self._m_wait = None
            self._m_queue = None
            self._m_grants = None

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self.users)

    def request(self) -> Request:
        """Return a request event; yield it to wait for the grant."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Give the resource back (or cancel a waiting request)."""
        users = self.users
        if users and users[0] is request:
            del users[0]
        elif request in users:
            users.remove(request)
        else:
            if request in self.queue:
                self.queue.remove(request)
            # Releasing an already-released request is a no-op so that
            # the with-statement exit stays safe after interrupts.
            return
        if self.queue:
            self._grant_next()

    def _discard(self, request: Request) -> None:
        """Remove ``request`` without granting to the next waiter."""
        if request in self.users:
            self.users.remove(request)
        else:
            self.release(request)  # withdrawing a waiter grants nothing

    def _enqueue(self, request: Request) -> None:
        users = self.users
        if not self.queue and len(users) < self.capacity:
            users.append(request)
            request._complete(None)
            if self._m_wait is not None:
                self._note_grant(request, 0)
        else:
            self.queue.append(request)

    def _note_grant(self, request: Request, pending: int) -> None:
        """Record wait time and, on a named resource, queue length for a
        fresh grant."""
        now = self.env._now
        self._m_wait.observe(now - request._requested_at)
        self._m_grants.inc()
        if self._m_queue is not None:
            self._m_queue.set(pending, now)

    def _grant_next(self) -> None:
        queue = self.queue
        users = self.users
        env = self.env
        while queue and len(users) < self.capacity:
            request = queue.pop(0)
            users.append(request)
            # The waiter is suspended on the request: queue the grant.
            request._ok = True
            request._value = None
            env._schedule_fast(request, env._now)
            if self._m_wait is not None:
                self._note_grant(request, len(queue))


class PriorityRequest(Request):
    """A request with a priority (lower value = more urgent)."""

    __slots__ = ("priority", "_withdrawn")

    def __init__(self, resource: "PriorityResource", priority: float = 0.0):
        self.priority = float(priority)
        #: Set when the request is withdrawn while waiting; the grant
        #: loop skips (and drops) its heap entry.
        self._withdrawn = False
        super().__init__(resource)


class PriorityResource(Resource):
    """A resource whose waiting queue is ordered by request priority.

    Ties are broken by arrival order.  No preemption: a grant is never
    revoked.  Withdrawing a waiting request is O(1): the request is
    marked and its heap entry is dropped when the grant loop reaches it.
    """

    def __init__(self, env: "Environment", capacity: int = 1, *,
                 name: str | None = None,
                 metrics: "MetricRegistry | None" = None):
        super().__init__(env, capacity, name=name, metrics=metrics)
        self._heap: list[tuple[float, int, PriorityRequest]] = []
        self._order = count()
        #: Heap entries whose request was withdrawn but not yet popped.
        self._n_withdrawn = 0

    def request(self, priority: float = 0.0) -> PriorityRequest:
        """Return a prioritized request event."""
        return PriorityRequest(self, priority)

    def release(self, request: Request) -> None:
        if request in self.users:
            self.users.remove(request)
            self._grant_next()
        elif (request.resource is self and request._value is PENDING
              and not request._withdrawn):
            # A waiting request: mark it; _grant_next drops its entry.
            request._withdrawn = True
            self._n_withdrawn += 1

    def _enqueue(self, request: Request) -> None:
        assert isinstance(request, PriorityRequest)
        if (len(self._heap) == self._n_withdrawn
                and len(self.users) < self.capacity):
            self.users.append(request)
            request._complete(None)
            if self._m_wait is not None:
                self._note_grant(request, 0)
        else:
            heapq.heappush(
                self._heap, (request.priority, next(self._order), request)
            )
            self._grant_next()

    def _grant_next(self) -> None:
        heap = self._heap
        users = self.users
        env = self.env
        while heap and len(users) < self.capacity:
            _, _, request = heapq.heappop(heap)
            if request._withdrawn:
                self._n_withdrawn -= 1
                continue
            users.append(request)
            request._ok = True
            request._value = None
            env._schedule_fast(request, env._now)
            if self._m_wait is not None:
                self._note_grant(request, len(heap) - self._n_withdrawn)

    @property
    def queue(self) -> list[Request]:  # type: ignore[override]
        """Waiting requests in grant order."""
        return [entry[2] for entry in sorted(self._heap)
                if not entry[2]._withdrawn]

    @queue.setter
    def queue(self, value) -> None:
        # Base-class __init__ assigns an empty list; accept and ignore it.
        if value:
            raise TypeError("queue of a PriorityResource is derived")
