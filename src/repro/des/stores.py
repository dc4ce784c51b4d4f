"""Buffers and queues: the communication substrate of stream models.

The paper's Fig.1 models every inter-process link as a finite-length queue
("dedicated buffers that behave like finite-length queues").  Two flavours
are provided:

* :class:`Store` — blocking put/get with optional capacity; producers that
  ``yield store.put(item)`` stall when the buffer is full (back-pressure).
* :class:`FiniteQueue` — a :class:`Store` with a non-blocking ``offer``
  that *drops* when full (loss systems such as Rx buffers behind a lossy
  channel) and built-in occupancy/drop accounting.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro.des.events import Event
from repro.utils.stats import TimeWeightedStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.environment import Environment
    from repro.obs.metrics import MetricRegistry

__all__ = ["StorePut", "StoreGet", "Store", "FiniteQueue"]


class StorePut(Event):
    """Pending insertion of ``item`` into a store.

    A put that finds room and no earlier putter waiting is done as it
    is created: it is already processed and never enters the event
    queue.
    """

    __slots__ = ("item", "store")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        self.store = store
        store._register_put(self)

    def cancel(self) -> None:
        """Withdraw a still-pending put (no-op once triggered).

        A process abandoning a blocked put — after an
        :class:`~repro.des.events.Interrupt`, say — must cancel it, or
        the store would later accept an item nobody is accounting for.
        """
        if not self.triggered:
            try:
                self.store._put_waiters.remove(self)
            except ValueError:
                pass


class StoreGet(Event):
    """Pending retrieval of an item from a store.

    A get that finds an item and no earlier getter waiting is done as
    it is created: it is already processed, with the item as its value,
    and never enters the event queue.
    """

    # _requested_at is only assigned (and only read) when the store has
    # a get-wait metric; the slot simply reserves it.
    __slots__ = ("store", "_requested_at")

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self.store = store
        store._register_get(self)

    def cancel(self) -> None:
        """Withdraw a still-pending get (no-op once triggered).

        Without the cancel, an abandoned get would silently swallow the
        next buffered item.
        """
        if not self.triggered:
            try:
                self.store._get_waiters.remove(self)
            except ValueError:
                pass


class Store:
    """FIFO item buffer with blocking put/get semantics.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Maximum number of buffered items; ``math.inf`` for unbounded.

    Examples
    --------
    >>> from repro.des import Environment, Store
    >>> env = Environment()
    >>> buf = Store(env, capacity=1)
    >>> def producer(env, buf):
    ...     for i in range(3):
    ...         yield buf.put(i)
    >>> def consumer(env, buf, out):
    ...     for _ in range(3):
    ...         item = yield buf.get()
    ...         out.append(item)
    >>> out = []
    >>> _ = env.process(producer(env, buf))
    >>> _ = env.process(consumer(env, buf, out))
    >>> env.run()
    >>> out
    [0, 1, 2]
    """

    def __init__(self, env: "Environment", capacity: float = math.inf,
                 *, name: str | None = None,
                 metrics: "MetricRegistry | None" = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._registry = metrics if metrics is not None \
            else getattr(env, "metrics", None)
        if self._registry is not None:
            label = name or "store"
            self._m_level = self._registry.gauge(
                "store_level", store=label)
            self._m_get_wait = self._registry.histogram(
                "store_get_wait", store=label)
        else:
            self._m_level = None
            self._m_get_wait = None
        self.items: list[Any] = []
        self._put_waiters: list[StorePut] = []
        self._get_waiters: list[StoreGet] = []
        #: Time-weighted occupancy, usable after the run for the average
        #: buffer length the paper calls "very important ... utilization
        #: over time".
        self.occupancy = TimeWeightedStats(start_time=env.now, initial=0.0)

    @property
    def level(self) -> int:
        """Number of items currently buffered."""
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Event that succeeds once ``item`` has been buffered."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Event that succeeds with the oldest buffered item."""
        return StoreGet(self)

    # ------------------------------------------------------------------
    # Internal matching of puts and gets
    # ------------------------------------------------------------------
    def _register_put(self, event: StorePut) -> None:
        if not self._put_waiters and len(self.items) < self.capacity:
            self.items.append(event.item)
            event._complete(None)
        else:
            self._put_waiters.append(event)
        self._dispatch()

    def _register_get(self, event: StoreGet) -> None:
        if self.items and not self._get_waiters:
            event._complete(self.items.pop(0))
            if self._m_get_wait is not None:
                self._m_get_wait.observe(0.0)
        else:
            if self._m_get_wait is not None:
                event._requested_at = self.env.now
            self._get_waiters.append(event)
        self._dispatch()

    def _record_level(self) -> None:
        self.occupancy.record(self.env.now, len(self.items))
        if self._m_level is not None:
            self._m_level.set(len(self.items), self.env.now)

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._put_waiters and len(self.items) < self.capacity:
                put_event = self._put_waiters.pop(0)
                self.items.append(put_event.item)
                put_event.succeed()
                progressed = True
            while self._get_waiters and self.items:
                get_event = self._get_waiters.pop(0)
                get_event.succeed(self.items.pop(0))
                if self._m_get_wait is not None:
                    self._m_get_wait.observe(
                        self.env.now - get_event._requested_at
                    )
                progressed = True
        self._record_level()


class FiniteQueue(Store):
    """A finite buffer that can also drop on overflow (loss system).

    ``offer`` models the arrival of a packet at a full buffer: it either
    enqueues immediately or drops, never blocks.  Blocking ``put``/``get``
    remain available for back-pressured producers and consumers.

    Attributes
    ----------
    n_offered, n_accepted, n_dropped:
        Arrival accounting for the non-blocking path.
    """

    def __init__(self, env: "Environment", capacity: float, *,
                 name: str | None = None,
                 metrics: "MetricRegistry | None" = None):
        if not math.isfinite(capacity):
            raise ValueError("FiniteQueue requires a finite capacity")
        super().__init__(env, capacity, name=name, metrics=metrics)
        self.n_offered = 0
        self.n_accepted = 0
        self.n_dropped = 0
        if self._registry is not None:
            label = name or "store"
            self._m_drops = self._registry.counter(
                "queue_drops", store=label)
            self._m_offers = self._registry.counter(
                "queue_offered", store=label)
        else:
            self._m_drops = None
            self._m_offers = None

    def offer(self, item: Any) -> bool:
        """Enqueue ``item`` if space allows; return False if dropped."""
        self.n_offered += 1
        if self._m_offers is not None:
            self._m_offers.inc()
        if len(self.items) >= self.capacity and not self._get_waiters:
            self.n_dropped += 1
            if self._m_drops is not None:
                self._m_drops.inc()
            return False
        self.n_accepted += 1
        self.items.append(item)
        self._dispatch()
        return True

    @property
    def loss_rate(self) -> float:
        """Fraction of offered items dropped (NaN before any offer)."""
        if self.n_offered == 0:
            return math.nan
        return self.n_dropped / self.n_offered
