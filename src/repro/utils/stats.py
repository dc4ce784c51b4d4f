"""Streaming statistics for simulation output analysis.

Two accumulator flavours are provided:

* :class:`SummaryStats` — per-observation statistics (Welford's online
  algorithm), used for latencies, packet sizes, energies, ...
* :class:`TimeWeightedStats` — piecewise-constant signals weighted by how
  long they hold each value, used for queue lengths and utilizations.

Plus classical output-analysis helpers: Student-t confidence intervals
and the method of batch means for correlated simulation output.  The t
quantile comes from :func:`scipy.special.stdtrit`, the function behind
scipy's ``t.ppf``, bit for bit; it is imported inside
:func:`confidence_interval`, so importing this module loads numpy but
no part of scipy.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SummaryStats",
    "TimeWeightedStats",
    "confidence_interval",
    "batch_means",
]


class SummaryStats:
    """Online mean/variance/min/max over a stream of observations.

    Uses Welford's numerically stable recurrence, so millions of
    observations can be folded in without storing them.

    Examples
    --------
    >>> s = SummaryStats()
    >>> for x in [1.0, 2.0, 3.0]:
    ...     s.add(x)
    >>> s.mean
    2.0
    >>> s.variance
    1.0
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.total = 0.0

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        value = float(value)
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold many observations into the accumulator."""
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        """Sample mean (NaN when empty)."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN with fewer than two samples)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        var = self.variance
        return math.sqrt(var) if var == var else math.nan

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        if self.count < 2:
            return math.nan
        return self.std / math.sqrt(self.count)

    def merge(self, other: "SummaryStats") -> "SummaryStats":
        """Return a new accumulator equivalent to both inputs combined."""
        merged = SummaryStats(self.name or other.name)
        n = self.count + other.count
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged.count = n
        merged.total = self.total + other.total
        merged._mean = self._mean + delta * other.count / n
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self.count * other.count / n
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"SummaryStats({label} n={self.count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )


class TimeWeightedStats:
    """Time-average of a piecewise-constant signal (e.g. queue length).

    Call :meth:`record` every time the signal changes; the accumulator
    weights the *previous* value by the elapsed interval.

    Examples
    --------
    >>> tw = TimeWeightedStats(start_time=0.0, initial=0.0)
    >>> tw.record(2.0, 10.0)   # value was 0 during [0, 2)
    >>> tw.record(4.0, 0.0)    # value was 10 during [2, 4)
    >>> tw.mean(at_time=4.0)
    5.0
    """

    def __init__(self, start_time: float = 0.0, initial: float = 0.0,
                 name: str = ""):
        self.name = name
        self._last_time = float(start_time)
        self._last_value = float(initial)
        self._area = 0.0
        self._sq_area = 0.0
        self._start = float(start_time)
        self.minimum = float(initial)
        self.maximum = float(initial)

    @property
    def current(self) -> float:
        """Latest recorded value of the signal."""
        return self._last_value

    def record(self, time: float, value: float) -> None:
        """Signal takes ``value`` from ``time`` onward."""
        time = float(time)
        if time < self._last_time:
            raise ValueError(
                f"time went backwards: {time} < {self._last_time}"
            )
        dt = time - self._last_time
        self._area += self._last_value * dt
        self._sq_area += self._last_value * self._last_value * dt
        self._last_time = time
        self._last_value = float(value)
        if self._last_value < self.minimum:
            self.minimum = self._last_value
        if self._last_value > self.maximum:
            self.maximum = self._last_value

    def mean(self, at_time: float | None = None) -> float:
        """Time-average of the signal up to ``at_time`` (default: last)."""
        if at_time is None:
            at_time = self._last_time
        span = at_time - self._start
        if span <= 0:
            return math.nan
        extra = self._last_value * (at_time - self._last_time)
        return (self._area + extra) / span

    def mean_square(self, at_time: float | None = None) -> float:
        """Time-average of the squared signal up to ``at_time``."""
        if at_time is None:
            at_time = self._last_time
        span = at_time - self._start
        if span <= 0:
            return math.nan
        extra = self._last_value ** 2 * (at_time - self._last_time)
        return (self._sq_area + extra) / span

    def variance(self, at_time: float | None = None) -> float:
        """Time-weighted variance of the signal."""
        mu = self.mean(at_time)
        if mu != mu:
            return math.nan
        return max(0.0, self.mean_square(at_time) - mu * mu)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"TimeWeightedStats({label} mean={self.mean():.6g})"


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Return ``(mean, half_width)`` of a Student-t confidence interval.

    Parameters
    ----------
    values:
        Independent (or batched) observations.
    confidence:
        Two-sided coverage probability, strictly between 0 and 1,
        e.g. ``0.95``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must lie strictly between 0 and 1, got {confidence}"
        )
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan, math.nan
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, math.inf
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    from scipy.special import stdtrit

    t = float(stdtrit(arr.size - 1, 0.5 + confidence / 2.0))
    return mean, t * sem


def batch_means(
    values: Sequence[float], n_batches: int = 10
) -> list[float]:
    """Split correlated output into ``n_batches`` batch means.

    The classical method of batch means: consecutive observations are
    grouped into equal batches whose means are approximately independent,
    making :func:`confidence_interval` applicable to autocorrelated
    simulation output.  Trailing observations that do not fill a batch are
    dropped.
    """
    arr = np.asarray(values, dtype=float)
    if n_batches <= 0:
        raise ValueError("n_batches must be positive")
    batch_size = arr.size // n_batches
    if batch_size == 0:
        raise ValueError(
            f"{arr.size} observations cannot fill {n_batches} batches"
        )
    used = arr[: batch_size * n_batches].reshape(n_batches, batch_size)
    return [float(m) for m in used.mean(axis=1)]
