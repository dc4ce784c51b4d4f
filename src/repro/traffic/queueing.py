"""Trace-driven queueing: where self-similarity bites (§3.2).

"This has a considerable impact on the queueing performance of the
communication architecture."  The slotted queue below (Lindley recursion
with a finite buffer) is fed with any work-per-slot trace — fGn, on/off
aggregate, Poisson, MMPP — and exposes occupancy statistics, overflow
probability and the tail of the queue-length distribution.  E2 feeds the
same mean load through Markovian and self-similar traces and shows the
drastically different tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TraceQueueResult", "simulate_trace_queue", "queue_tail"]


@dataclass
class TraceQueueResult:
    """Slotted-queue metrics for one trace."""

    mean_occupancy: float
    max_occupancy: float
    loss_fraction: float
    utilization: float
    occupancies: np.ndarray

    def survival(self, levels) -> np.ndarray:
        """P[Q > level] for each requested level (``nan`` for an
        empty trace)."""
        levels = np.asarray(levels, dtype=float)
        n = self.occupancies.size
        return np.array([
            float((self.occupancies > level).sum()) / n if n else math.nan
            for level in levels
        ])


def simulate_trace_queue(
    trace,
    service_per_slot: float,
    buffer_size: float = math.inf,
) -> TraceQueueResult:
    """Run a work-conserving slotted queue over ``trace``.

    Per slot: work ``trace[t]`` arrives, up to ``service_per_slot``
    drains, anything above ``buffer_size`` overflows and is lost.

    Parameters
    ----------
    trace:
        Work arriving in each slot (finite and non-negative).
    service_per_slot:
        Server capacity per slot.
    buffer_size:
        Queue capacity in work units (inf = lossless).
    """
    arrivals = np.ascontiguousarray(trace, dtype=float)
    if not np.isfinite(arrivals).all():
        raise ValueError("trace must be finite")
    if (arrivals < 0).any():
        raise ValueError("trace must be non-negative")
    if service_per_slot <= 0:
        raise ValueError("service_per_slot must be positive")
    if buffer_size <= 0:
        raise ValueError("buffer_size must be positive")

    n = arrivals.size
    occupancies = np.empty(n)
    # The recursion runs on Python floats read from and written to the
    # arrays' buffers: the same float64 arithmetic as numpy scalars,
    # without a numpy scalar per slot.
    out = memoryview(occupancies)
    service = float(service_per_slot)
    capacity = float(buffer_size)
    q = 0.0
    lost = 0.0
    busy = 0.0
    for t, work in enumerate(memoryview(arrivals)):
        q += work
        if q > capacity:
            lost += q - capacity
            q = capacity
        # Drain min(q, service); q - q is 0.0 exactly.
        if q > service:
            busy += service
            q -= service
        else:
            busy += q
            q = 0.0
        out[t] = q
    offered = float(arrivals.sum())
    return TraceQueueResult(
        mean_occupancy=float(occupancies.mean()) if n else math.nan,
        max_occupancy=float(occupancies.max()) if n else math.nan,
        loss_fraction=lost / offered if offered > 0 else 0.0,
        utilization=busy / (service_per_slot * n) if n else math.nan,
        occupancies=occupancies,
    )


def queue_tail(
    trace, service_per_slot: float, levels
) -> np.ndarray:
    """Convenience: survival function P[Q > level] of the infinite-buffer
    queue fed by ``trace``."""
    result = simulate_trace_queue(trace, service_per_slot)
    return result.survival(levels)
