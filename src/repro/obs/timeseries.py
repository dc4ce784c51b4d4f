"""KPI-over-sim-time series and the probe that feeds them.

Scalars tell you *where a run ended*; the paper's holistic design loop
needs *trajectories* — buffer levels, deadline misses and energy as
they evolve over simulated time.  :class:`TimeSeries` is the fourth
instrument kind of :class:`~repro.obs.metrics.MetricRegistry`: a
fixed-memory, deterministically downsampled sequence of ``(t, value)``
samples that merges across replicas like the other kinds.

Design: samples land in bins anchored at ``t = 0`` whose width walks a
power-of-two ladder above a fixed ``base_width``.  When the number of
occupied bins would exceed the budget, the width doubles and adjacent
bins pairwise-merge (an exact integer halving of bin indices — no
floating-point rebinning).  Because the occupied-bin count at any
width is a function of the sample *set* alone, the final width — and
therefore the serialized form — does not depend on the order samples
arrived or on how samples were split across replicas, which is what
keeps replicated merges byte-identical for any worker count.

:class:`Probe` snapshots selected registry instruments (and per-
environment kernel counters) into ``probe_*`` time series at a fixed
*sim-time* interval.  It is not a simulated process — it piggybacks on
:meth:`Environment.step <repro.des.Environment.step>` behind a single
float comparison, so it never schedules events, never perturbs the
event order, and costs nothing when absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import Metric

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.des.environment import Environment
    from repro.obs.metrics import MetricRegistry

__all__ = ["TimeSeries", "Probe", "ProbeSpec", "as_probe_spec",
           "DEFAULT_MAX_BINS", "DEFAULT_BASE_WIDTH",
           "DEFAULT_PROBE_INTERVAL"]

#: Bin budget per series: the downsampling ladder keeps the number of
#: occupied bins at or below this, bounding memory and payload size.
DEFAULT_MAX_BINS = 512

#: Finest bin width (2**-20 simulated time units, ~1e-6).  Samples
#: closer together than this share a bin from the start.
DEFAULT_BASE_WIDTH = 2.0 ** -20

#: Sim-time seconds between probe snapshots.
DEFAULT_PROBE_INTERVAL = 1.0

# Bin aggregate slots: [count, total, minimum, maximum].
_COUNT, _TOTAL, _MIN, _MAX = 0, 1, 2, 3


class TimeSeries(Metric):
    """A downsampled ``value(t)`` trajectory with a fixed bin budget.

    Every bin keeps exact aggregates (count, total, min, max) of the
    samples that fell into it, so downsampling loses resolution but
    never loses mass.  ``add`` rejects non-finite times (the bin index
    would be meaningless); non-finite *values* are dropped silently so
    a probe can sample a never-set gauge without poisoning totals.
    """

    kind = "timeseries"

    def __init__(self, name: str, labels: dict[str, str],
                 max_bins: int = DEFAULT_MAX_BINS,
                 base_width: float = DEFAULT_BASE_WIDTH):
        super().__init__(name, labels)
        if max_bins < 2:
            raise ValueError(f"max_bins must be >= 2, got {max_bins}")
        if not (base_width > 0.0 and math.isfinite(base_width)):
            raise ValueError(f"base_width must be a positive finite "
                             f"number, got {base_width}")
        self.n_samples = 0
        self.max_bins = max_bins
        self.base_width = base_width
        self.level = 0
        self._bins: dict[int, list[float]] = {}

    @property
    def width(self) -> float:
        """Current bin width: ``base_width * 2**level``."""
        return self.base_width * (1 << self.level)

    def add(self, t: float, value: float) -> None:
        """Fold one ``(t, value)`` sample into the series."""
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"sample time must be finite, got {t}")
        value = float(value)
        if not math.isfinite(value):
            return
        self.n_samples += 1
        # self.width, inlined (hot path: one call per sample).
        index = math.floor(t / (self.base_width * (1 << self.level)))
        bin_ = self._bins.get(index)
        if bin_ is None:
            self._bins[index] = [1.0, value, value, value]
            self._shrink_to_budget()
        else:
            bin_[_COUNT] += 1.0
            bin_[_TOTAL] += value
            if value < bin_[_MIN]:
                bin_[_MIN] = value
            if value > bin_[_MAX]:
                bin_[_MAX] = value

    def _shrink_to_budget(self) -> None:
        """Widen the bins to the finest level that fits the budget."""
        if len(self._bins) <= self.max_bins:
            return
        keys = sorted(self._bins)
        # Two adjacent occupied bins share a bin from ``_join`` levels
        # up, so the occupied count at ``d`` levels up is one plus the
        # number of adjacent joins above ``d``.
        joins = sorted(map(_join, keys, keys[1:]), reverse=True)
        self._rebin(self.level + joins[self.max_bins - 1], keys)

    def _rebin(self, level: int, keys: list[int] | None = None) -> None:
        """Widen the bins to ``level`` in one pass.

        The result, floats included, is that of doubling the width one
        level at a time, where each doubling merges sibling bins
        pairwise (``floor(t / 2w) == floor(floor(t / w) / 2)``, so no
        sample time is re-quantized through floating point).  A coarse
        bin's total is therefore the sum over the binary tree of its
        occupied sub-bins, and the tree is fixed by the levels at which
        adjacent sub-bins join: a stack fold over the sorted indices
        adds the same pairs in the same shape.  Each pair's merge keeps
        the bin seen first in iteration order, as the doubling did, and
        the new bins keep that first-seen order.
        """
        bins = self._bins
        shift = level - self.level
        if keys is None:
            keys = sorted(bins)
        first_seen = {index: n for n, index in enumerate(bins)}
        merged: list[tuple[int, int, list[float]]] = []
        stack: list[tuple[int, list[float]]] = []
        joins: list[float] = []
        last = len(keys) - 1
        for n, index in enumerate(keys):
            stack.append((first_seen[index], list(bins[index])))
            join = _join(index, keys[n + 1]) if n < last else math.inf
            while joins and joins[-1] < join:
                joins.pop()
                right = stack.pop()
                left = stack.pop()
                stack.append(_merge_bins(left, right))
            if join <= shift:
                joins.append(join)
            else:
                seen, bin_ = stack.pop()
                merged.append((seen, index >> shift, bin_))
        merged.sort()
        self._bins = {index: bin_ for _, index, bin_ in merged}
        self.level = level

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def points(self) -> list[tuple[float, int, float, float, float]]:
        """Sorted ``(t_start, count, mean, min, max)`` per bin."""
        width = self.width
        return [
            (index * width, int(bin_[_COUNT]),
             bin_[_TOTAL] / bin_[_COUNT], bin_[_MIN], bin_[_MAX])
            for index, bin_ in sorted(self._bins.items())
        ]

    @property
    def last(self) -> float:
        """Mean of the latest bin (NaN when empty)."""
        if not self._bins:
            return math.nan
        bin_ = self._bins[max(self._bins)]
        return bin_[_TOTAL] / bin_[_COUNT]

    @property
    def span(self) -> tuple[float, float]:
        """``(t_first, t_last)`` bin-start bounds (NaN when empty)."""
        if not self._bins:
            return (math.nan, math.nan)
        width = self.width
        return (min(self._bins) * width, max(self._bins) * width)

    # ------------------------------------------------------------------
    # Merge / serialization
    # ------------------------------------------------------------------
    def merge_from(self, other: "Metric") -> None:
        """Fold another series in; equivalent to adding its samples.

        An empty series adopts the other's geometry outright, so a
        registry merge that creates a fresh default-parameter adoptee
        preserves custom budgets.  Non-empty operands must share
        ``base_width`` (bins of unrelated ladders cannot align).
        """
        if not isinstance(other, TimeSeries):  # pragma: no cover
            raise TypeError(f"cannot merge {other.kind} into "
                            f"timeseries {self.key}")
        if not self._bins:
            self.max_bins = other.max_bins
            self.base_width = other.base_width
            self.level = other.level
            self.n_samples += other.n_samples
            self._bins = {i: list(b) for i, b in other._bins.items()}
            self._shrink_to_budget()
            return
        if other.base_width != self.base_width:
            raise ValueError(
                f"cannot merge timeseries {self.key}: base_width "
                f"{other.base_width} != {self.base_width}")
        level = max(self.level, other.level)
        if self.level < level:
            self._rebin(level)
        shift = level - other.level
        for index, bin_ in other._bins.items():
            coarse = index // (1 << shift) if shift else index
            into = self._bins.get(coarse)
            if into is None:
                self._bins[coarse] = list(bin_)
            else:
                into[_COUNT] += bin_[_COUNT]
                into[_TOTAL] += bin_[_TOTAL]
                if bin_[_MIN] < into[_MIN]:
                    into[_MIN] = bin_[_MIN]
                if bin_[_MAX] > into[_MAX]:
                    into[_MAX] = bin_[_MAX]
        self.n_samples += other.n_samples
        self._shrink_to_budget()

    def to_dict(self) -> dict[str, Any]:
        """Serialized form; bin starts are exact ``index * width``.

        ``points`` rows are ``[t_start, count, total, min, max]``.
        Everything here derives from sample (t, value) pairs alone —
        no wall-clock fields — so embedded series survive
        ``strip_timings()`` untouched and must stay byte-identical
        across worker counts.
        """
        width = self.width
        return {
            "kind": self.kind,
            "n_samples": self.n_samples,
            "bin_width": width,
            "points": [
                [index * width, bin_[_COUNT], bin_[_TOTAL],
                 bin_[_MIN], bin_[_MAX]]
                for index, bin_ in sorted(self._bins.items())
            ],
        }


def _join(low: int, high: int) -> float:
    """Levels up at which bins ``low < high`` first share a bin."""
    if low < 0 <= high:
        return math.inf  # floor halving never meets across zero
    return (low ^ high).bit_length()


def _merge_bins(
    a: tuple[int, list[float]], b: tuple[int, list[float]],
) -> tuple[int, list[float]]:
    """Merge two ``(first_seen, bin)`` entries into the earlier-seen
    bin, exactly as a doubling step would."""
    into, other = (a, b) if a[0] < b[0] else (b, a)
    bin_, add = into[1], other[1]
    bin_[_COUNT] += add[_COUNT]
    bin_[_TOTAL] += add[_TOTAL]
    if add[_MIN] < bin_[_MIN]:
        bin_[_MIN] = add[_MIN]
    if add[_MAX] > bin_[_MAX]:
        bin_[_MAX] = add[_MAX]
    return into


@dataclass(frozen=True)
class ProbeSpec:
    """Declarative, picklable probe configuration.

    ``interval`` is *simulated* seconds between snapshots.  ``metrics``
    selects which registry instruments to sample: ``True`` for every
    counter and gauge, or a tuple of metric names.  ``kernel`` adds
    per-environment kernel counter series (events executed/scheduled,
    pending queue depth).  Sampled series are registered under
    ``prefix + name`` with the source instrument's labels.
    """

    interval: float = DEFAULT_PROBE_INTERVAL
    metrics: bool | tuple[str, ...] = True
    kernel: bool = True
    prefix: str = "probe_"

    def __post_init__(self) -> None:
        if not (self.interval > 0.0 and math.isfinite(self.interval)):
            raise ValueError(f"probe interval must be a positive "
                             f"finite number, got {self.interval}")

    def to_dict(self) -> dict[str, Any]:
        metrics: Any = self.metrics
        if isinstance(metrics, tuple):
            metrics = list(metrics)
        return {"interval": self.interval, "metrics": metrics,
                "kernel": self.kernel, "prefix": self.prefix}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ProbeSpec":
        metrics = data.get("metrics", True)
        if isinstance(metrics, list):
            metrics = tuple(metrics)
        return cls(interval=float(data.get("interval",
                                           DEFAULT_PROBE_INTERVAL)),
                   metrics=metrics,
                   kernel=bool(data.get("kernel", True)),
                   prefix=str(data.get("prefix", "probe_")))


def as_probe_spec(value: Any) -> ProbeSpec | None:
    """Coerce the user-facing ``probe=`` argument to a spec.

    ``None``/``False`` disable probing; ``True`` means the default
    spec; a number is an interval in simulated seconds; a
    :class:`ProbeSpec` (or a live :class:`Probe`, whose spec is
    taken) passes through.
    """
    if value is None or value is False:
        return None
    if value is True:
        return ProbeSpec()
    if isinstance(value, ProbeSpec):
        return value
    if isinstance(value, Probe):
        return value.spec
    if isinstance(value, (int, float)):
        return ProbeSpec(interval=float(value))
    raise TypeError(f"probe must be a bool, number, ProbeSpec or "
                    f"Probe, got {type(value).__name__}")


class Probe:
    """Samples registry metrics into time series at sim-time ticks.

    Installed as the third ambient slot by
    :func:`repro.obs.instrument`; every
    :class:`~repro.des.Environment` constructed under it checks its
    clock against the next due tick on each step (a single float
    comparison — see the perf guard's probe bounds).  Environments get
    stable indices in construction order, which is deterministic for a
    seeded run, so kernel series labels match across worker counts.
    """

    def __init__(self, registry: "MetricRegistry",
                 spec: ProbeSpec | None = None):
        self.registry = registry
        self.spec = spec or ProbeSpec()
        #: Optional :class:`repro.obs.slo.SLOWatcher` evaluated after
        #: every snapshot (in-flight breach detection).
        self.watcher: Any = None
        self.samples = 0
        self._env_seq = 0

    def attach(self, env: "Environment") -> float:
        """Register a new environment; returns its first due time."""
        env._probe_index = self._env_seq
        self._env_seq += 1
        return self.spec.interval

    def sample(self, env: "Environment", now: float) -> float:
        """Take one snapshot at sim-time ``now``; returns next due."""
        spec = self.spec
        registry = self.registry
        self.samples += 1
        if spec.kernel:
            env_label = str(getattr(env, "_probe_index", 0))
            stats = env.perf_stats()
            for field in ("events_executed", "events_scheduled",
                          "pending"):
                series = registry._get_or_create(
                    TimeSeries, f"{spec.prefix}kernel_{field}",
                    {"env": env_label})
                series.add(now, float(stats[field]))
        if spec.metrics:
            selected = spec.metrics
            for metric in list(registry):
                if metric.kind not in ("counter", "gauge"):
                    continue
                if metric.name.startswith(spec.prefix):
                    continue
                if (selected is not True
                        and metric.name not in selected):
                    continue
                series = registry._get_or_create(
                    TimeSeries, spec.prefix + metric.name,
                    metric.labels)
                series.add(now, metric.value)
        if self.watcher is not None:
            self.watcher.check(now)
        interval = spec.interval
        return (math.floor(now / interval) + 1.0) * interval
