"""Counters, gauges and histograms behind a shared registry.

Entities across the stack (stores, resources, channels, NoC links,
MANET sessions) emit through a :class:`MetricRegistry`; a run report
then snapshots the registry into plain dictionaries.  Instruments are
deliberately simple — everything is in-process and single-threaded,
like the simulations they observe.

Naming convention: metric names are ``snake_case`` with the measured
unit implied by the subsystem (simulated seconds, bits, joules);
labels distinguish entities (``registry.counter("channel_sent",
channel="primary")``).
"""

from __future__ import annotations

import math
from typing import Any, Iterator

from repro.utils.stats import SummaryStats

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry"]

#: Histograms stop *storing* individual observations beyond this many
#: samples (aggregates keep folding everything in); bounds memory on
#: packet-scale workloads.
DEFAULT_MAX_SAMPLES = 65_536


class Metric:
    """Common identity of every instrument: a name plus labels."""

    kind = "metric"

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = dict(labels)

    @property
    def key(self) -> str:
        """Canonical ``name{k=v,...}`` identity string."""
        if not self.labels:
            return self.name
        inner = ",".join(
            f"{k}={v}" for k, v in sorted(self.labels.items())
        )
        return f"{self.name}{{{inner}}}"

    def to_dict(self) -> dict[str, Any]:
        raise NotImplementedError

    def merge_from(self, other: "Metric") -> None:
        """Fold ``other`` (same kind, e.g. from a replica) into this
        instrument in place.  Subclasses define the fold."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.key}>"


class Counter(Metric):
    """A monotonically increasing total (events, bits, joules)."""

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, str]):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, "
                             f"got {amount}")
        self.value += amount

    def merge_from(self, other: "Metric") -> None:
        """Totals from independent runs sum."""
        self.value += other.value

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge(Metric):
    """An instantaneous level (queue length, alive nodes, link load).

    Passing the current simulation time to :meth:`set` additionally
    accumulates a time-weighted average of the signal, the right
    summary for piecewise-constant quantities such as buffer levels.
    A time *earlier* than the previous sample starts a new segment
    (one run can create several environments, each with its own clock
    starting at zero) — the accumulated average spans all segments.
    """

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, str]):
        super().__init__(name, labels)
        self.value = math.nan
        self.minimum = math.inf
        self.maximum = -math.inf
        self._last_t: float | None = None
        self._weight = 0.0
        self._weighted_sum = 0.0

    def set(self, value: float, t: float | None = None) -> None:
        """Record the signal taking ``value`` (from time ``t`` on)."""
        previous = self.value
        value = float(value)
        self.value = value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if t is None:
            return
        if self._last_t is not None and t > self._last_t:
            # Strictly positive spans only: a zero-width segment
            # contributes no weight, and skipping it keeps
            # ``0 * inf`` (previous level ±inf at an instantaneous
            # re-set) from poisoning the accumulator with NaN.
            span = t - self._last_t
            self._weight += span
            self._weighted_sum += span * previous
        self._last_t = t

    @property
    def time_mean(self) -> float:
        """Time-weighted mean (NaN when never set with a time)."""
        if self._weight == 0.0:
            return math.nan
        return self._weighted_sum / self._weight

    def merge_from(self, other: "Metric") -> None:
        """Fold an independent run's gauge into this one.

        Extremes combine; the time-weighted accumulators add (the
        merged ``time_mean`` weights each run by its own observed
        span, exactly the across-replica pooling a replicated
        experiment wants).  ``value`` — the *last* level seen — takes
        the other gauge's when it was ever set: replicas fold in
        replica order, so the merged last-value is deterministic.
        """
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        self._weight += other._weight
        self._weighted_sum += other._weighted_sum
        if not math.isnan(other.value):
            self.value = other.value

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": self.kind,
            "value": self.value,
            "min": self.minimum,
            "max": self.maximum,
        }
        if self._weight > 0.0:
            data["time_mean"] = self.time_mean
        return data


class Histogram(Metric):
    """Distribution of observations (wait times, latencies, sizes).

    Aggregates fold in every observation via
    :class:`~repro.utils.stats.SummaryStats`; the raw values are also
    retained up to ``max_samples`` so a report can attach confidence
    intervals.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: dict[str, str],
                 max_samples: int = DEFAULT_MAX_SAMPLES):
        super().__init__(name, labels)
        self.stats = SummaryStats(name=self.key)
        self.values: list[float] = []
        self._max_samples = max_samples

    def observe(self, value: float) -> None:
        """Fold one observation into the distribution.

        Packet-scale models call this per grant and per delivery, so
        the Welford update of :meth:`SummaryStats.add` is inlined here:
        the same arithmetic in the same order, so the same floats.
        """
        if type(value) is not float:
            value = float(value)
        stats = self.stats
        stats.count += 1
        stats.total += value
        delta = value - stats._mean
        stats._mean += delta / stats.count
        stats._m2 += delta * (value - stats._mean)
        if value < stats.minimum:
            stats.minimum = value
        if value > stats.maximum:
            stats.maximum = value
        if len(self.values) < self._max_samples:
            self.values.append(value)

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def mean(self) -> float:
        return self.stats.mean

    @property
    def capped(self) -> bool:
        """True once observations were folded but no longer stored."""
        return self.stats.count > len(self.values)

    def percentile(self, q: float) -> float:
        """Linear-interpolated ``q``-th percentile of the *retained*
        samples (``q`` in [0, 100]; NaN when empty).

        Notes
        -----
        **Capping bias.**  A histogram stops *storing* samples after
        ``max_samples`` observations (aggregates keep folding
        everything in), so once :attr:`capped` is true the percentile
        describes only the earliest ``max_samples`` observations of
        the run and is biased toward its early, possibly transient,
        phase.  :meth:`merge` concatenates retained samples and
        re-caps, which compounds the effect: the merged percentile
        over-weights the first operand's early samples.  Compare
        ``count`` with ``len(values)`` (or check :attr:`capped`) to
        detect the bias; aggregate statistics (``mean``, ``std``,
        ``min``, ``max``) remain exact over all observations.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], "
                             f"got {q}")
        if not self.values:
            return math.nan
        data = sorted(self.values)
        if len(data) == 1:
            return data[0]
        position = (len(data) - 1) * q / 100.0
        lower = int(position)
        fraction = position - lower
        if fraction == 0.0:
            return data[lower]
        return data[lower] + fraction * (data[lower + 1] - data[lower])

    def merge(self, other: "Histogram") -> "Histogram":
        """A new histogram equivalent to both inputs combined.

        Aggregates merge exactly (Welford accumulators fold without
        loss); retained samples are concatenated, self first, and
        re-capped at this histogram's ``max_samples`` — see the
        capping-bias note on :meth:`percentile`.  The result keeps
        this histogram's name and labels.
        """
        merged = Histogram(self.name, self.labels,
                           max_samples=self._max_samples)
        merged.stats = self.stats.merge(other.stats)
        merged.values = (self.values
                         + other.values)[:self._max_samples]
        return merged

    def merge_from(self, other: "Metric") -> None:
        """In-place :meth:`merge` (same aggregates-exact, samples
        re-capped contract)."""
        self.stats = self.stats.merge(other.stats)
        room = self._max_samples - len(self.values)
        if room > 0:
            self.values.extend(other.values[:room])

    def to_dict(self) -> dict[str, Any]:
        s = self.stats
        return {
            "kind": self.kind,
            "count": s.count,
            "total": s.total,
            "mean": s.mean,
            "std": s.std,
            "min": s.minimum if s.count else math.nan,
            "max": s.maximum if s.count else math.nan,
        }


class MetricRegistry:
    """Shared collection of instruments, keyed by name and labels.

    ``counter``/``gauge``/``histogram``/``timeseries`` are
    get-or-create: asking twice
    for the same name and labels returns the same instrument, so
    entities can resolve their handles eagerly at construction and emit
    through plain attribute access afterwards.

    Examples
    --------
    >>> registry = MetricRegistry()
    >>> sent = registry.counter("channel_sent", channel="uplink")
    >>> sent.inc()
    >>> registry.counter("channel_sent", channel="uplink").value
    1.0
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple, Metric] = {}

    def _get_or_create(self, cls, name: str,
                       labels: dict[str, str]) -> Metric:
        labels = {k: str(v) for k, v in labels.items()}
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"{metric.key} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the :class:`Counter` ``name{labels}``."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the :class:`Gauge` ``name{labels}``."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        """Get or create the :class:`Histogram` ``name{labels}``."""
        return self._get_or_create(Histogram, name, labels)

    def timeseries(self, name: str, **labels: str):
        """Get or create the
        :class:`~repro.obs.timeseries.TimeSeries` ``name{labels}``."""
        from repro.obs.timeseries import TimeSeries

        return self._get_or_create(TimeSeries, name, labels)

    def get(self, name: str, **labels: str) -> Metric | None:
        """Return the instrument if it exists, else ``None``."""
        labels = {k: str(v) for k, v in labels.items()}
        key = (name, tuple(sorted(labels.items())))
        return self._metrics.get(key)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def merge(self, other: "MetricRegistry") -> "MetricRegistry":
        """Fold every instrument of ``other`` into this registry.

        Instruments are matched by (name, labels); a key present only
        in ``other`` is adopted as a fresh instrument of the same
        kind.  Counters sum, gauges pool extremes and time-weighted
        accumulators, histograms merge exactly in the aggregates and
        re-cap retained samples (:meth:`Histogram.merge`).  Folding
        replicas in a fixed order makes the merged snapshot
        deterministic regardless of which worker finished first.
        Returns ``self`` so folds chain.
        """
        for key, metric in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                mine = type(metric)(metric.name, metric.labels)
                self._metrics[key] = mine
            elif type(mine) is not type(metric):
                raise TypeError(
                    f"cannot merge {metric.kind} {metric.key} into "
                    f"{mine.kind} of the same key"
                )
            mine.merge_from(metric)
        return self

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Serialize every instrument: ``{key: {kind, aggregates}}``."""
        return {
            metric.key: metric.to_dict()
            for metric in self._metrics.values()
        }
