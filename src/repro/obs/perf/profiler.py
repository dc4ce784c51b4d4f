"""Wall-clock profiler for simulation runs.

Three coordinated instruments:

* **Simulated-process attribution** — a :class:`WallAttributionTracer`
  (a :class:`~repro.obs.trace.Tracer` subclass) timestamps every
  kernel ``step`` hook with ``time.perf_counter`` and charges the gap
  between consecutive steps to the process the earlier step resumed
  (the ``proc`` attribute the kernel attaches to step events).  The
  result is ``wall_by_owner``: host seconds per simulated process,
  with kernel-internal events grouped under ``event:<EventClass>``.
* **Statistical stacks** (default mode, ``mode="sample"``) — a
  SIGPROF/``setitimer`` sampler captures the full Python stack every
  few milliseconds of CPU time.  Full stacks make the collapsed-stack
  (folded) export exact, and the overhead is a few percent — the
  default of ``repro run --profile``.
* **Deterministic counts** (``mode="cprofile"``) — a :mod:`cProfile`
  session records exact call counts and per-function times.  Precise,
  but 3–5× slower on this kernel's many tiny calls; collapsed stacks
  are reconstructed from the caller/callee graph (flameprof-style
  expansion), so they are an approximation.

Either mode emits a ranked hotspot table and a folded-stack text file
that standard flamegraph tools (``flamegraph.pl``, speedscope,
inferno) consume directly.  Profiling is observational: a profiled
run computes exactly the same seeded result as an unprofiled one
(asserted in ``tests/obs/test_perf.py``; overhead is measured in
``benchmarks/bench_perf_guard.py`` and documented in
``docs/profiling.md``).
"""

from __future__ import annotations

import cProfile
import pstats
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.obs.context import instrument
from repro.obs.trace import Tracer
from repro.utils.tables import Table

__all__ = ["WallAttributionTracer", "Hotspot", "ProfileReport",
           "Profiler", "collapse_stats"]

#: Default CPU-time sampling period of the statistical mode (seconds).
DEFAULT_SAMPLE_INTERVAL = 0.004


class WallAttributionTracer(Tracer):
    """Tracer that charges host wall-clock time to simulated owners.

    Every ``step`` emit timestamps the call with ``perf_counter`` and
    adds the interval since the previous step to the current *owner*:
    the resumed process (``proc`` attribute) when the kernel knows it,
    otherwise ``event:<EventClass>``.  All other emits (schedule
    calls, model events) happen inside a step's callbacks, so
    charging at step granularity is exact.

    By default no events are stored (``max_events=0``): attribution
    needs none, and skipping storage keeps the profiled run close to
    the plain one.  Pass a larger ``max_events`` to also keep the
    trace (spans, timelines) alongside the attribution.
    """

    #: Attribution happens at step granularity; asking the kernel to
    #: skip per-event schedule emits keeps profiled runs cheap.
    wants_schedule = False

    def __init__(self, max_events: int | None = 0):
        super().__init__(max_events=max_events)
        self.wall_by_owner: dict[str, float] = {}
        self._last_wall: float | None = None
        self._owners: tuple[str, ...] = ()
        self._store = max_events is None or max_events > 0

    def emit(self, time: float, kind: str, name: str,
             **attrs: Any) -> None:
        if kind == "step":
            now = perf_counter()
            if self._owners:
                # A fan-in step resumes several processes at once
                # (the kernel's `procs` attribute); the host time of
                # that step is split evenly between them rather than
                # charged wholesale to the first.
                bucket = self.wall_by_owner
                share = (now - self._last_wall) / len(self._owners)
                for owner in self._owners:
                    bucket[owner] = bucket.get(owner, 0.0) + share
            owners = attrs.get("procs")
            if owners is None:
                single = attrs.get("proc")
                owners = ((single,) if single is not None
                          else (f"event:{name}",))
            self._owners = tuple(owners)
            self._last_wall = now
        if self._store:
            super().emit(time, kind, name, **attrs)


class _StackSampler:
    """SIGPROF-driven statistical sampler (stdlib only, POSIX).

    ``setitimer(ITIMER_PROF, ...)`` fires every ``interval`` seconds
    of consumed CPU time; the handler walks the interrupted frame and
    counts the full stack.  Only the main thread is sampled — which
    is where every simulation in this repository runs.
    """

    def __init__(self, interval: float):
        self.interval = float(interval)
        self.counts: dict[tuple, int] = {}
        self.n_samples = 0
        self._previous_handler: Any = None

    @staticmethod
    def available() -> bool:
        return hasattr(signal, "setitimer") and hasattr(signal,
                                                        "SIGPROF")

    def _handler(self, signum, frame) -> None:
        stack = []
        while frame is not None:
            code = frame.f_code
            stack.append((code.co_filename, code.co_firstlineno,
                          code.co_name))
            frame = frame.f_back
        key = tuple(reversed(stack))
        self.counts[key] = self.counts.get(key, 0) + 1
        self.n_samples += 1

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGPROF,
                                               self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval,
                         self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGPROF, self._previous_handler)
            self._previous_handler = None


def _frame_label(func: tuple) -> str:
    """``file:line:name`` label for one (file, line, name) key."""
    filename, line, name = func
    if filename == "~":  # C-level / builtin frame (cProfile)
        return name.strip("<>")
    return f"{Path(filename).name}:{line}:{name}"


def collapse_stats(stats: dict, *, min_fraction: float = 5e-4,
                   max_depth: int = 48) -> dict[str, float]:
    """Expand a pstats table into collapsed (folded) stacks.

    ``stats`` is the raw ``pstats.Stats(...).stats`` mapping
    ``func -> (cc, nc, tt, ct, callers)``.  cProfile records only the
    caller/callee graph, not full stacks, so — like ``flameprof`` —
    the expansion walks the graph from the roots and distributes each
    function's time over its call paths proportionally to the
    cumulative time of each caller edge.  Cycles are cut at the first
    repeated frame and paths contributing less than ``min_fraction``
    of total runtime are dropped.

    Returns ``{"root;child;...;leaf": seconds_of_own_time}``.
    """
    callees: dict[tuple, list[tuple[tuple, float]]] = {}
    roots: list[tuple] = []
    total = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        total += tt
        for caller, (_ccc, _cnc, _ctt, cct) in callers.items():
            callees.setdefault(caller, []).append((func, cct))
        # Roots: never called, or only by themselves (self-recursion).
        if all(caller is func for caller in callers):
            roots.append(func)
    folded: dict[str, float] = {}
    if total <= 0.0:
        return folded
    threshold = total * min_fraction

    def walk(func: tuple, fraction: float, stack: tuple,
             depth: int) -> None:
        _cc, _nc, tt, ct, _callers = stats[func]
        if ct * fraction < threshold or depth >= max_depth:
            return
        path = stack + (_frame_label(func),)
        own = tt * fraction
        if own >= threshold:
            key = ";".join(path)
            folded[key] = folded.get(key, 0.0) + own
        for child, edge_ct in callees.get(func, ()):
            if child is func or _frame_label(child) in path:
                continue  # cut recursion/cycles
            child_total = stats[child][3]
            if child_total <= 0.0:
                continue
            walk(child, fraction * edge_ct / child_total, path,
                 depth + 1)

    for root in sorted(roots, key=_frame_label):
        walk(root, 1.0, (), 0)
    return folded


@dataclass(frozen=True)
class Hotspot:
    """One ranked row of the function-level profile.

    ``calls`` is the exact call count in ``cprofile`` mode and
    ``None`` in ``sample`` mode (a sampler sees stacks, not calls);
    times in ``sample`` mode are estimates (samples × interval).
    """

    function: str
    tottime: float
    cumtime: float
    calls: int | None = None


class ProfileReport:
    """Everything one :class:`Profiler` session measured."""

    def __init__(self, *, mode: str, wall_seconds: float,
                 hotspots: list[Hotspot],
                 folded: dict[str, float],
                 wall_by_owner: dict[str, float],
                 n_samples: int = 0,
                 tracer: Tracer | None = None):
        self.mode = mode
        self.wall_seconds = wall_seconds
        self.hotspots = hotspots
        self.folded = folded
        self.wall_by_owner = dict(wall_by_owner)
        self.n_samples = n_samples
        self.tracer = tracer
        #: Return value of the profiled callable (set by
        #: :meth:`Profiler.profile`).
        self.result: Any = None

    # -- function-level view -------------------------------------------
    def hotspot_table(self, n: int = 15) -> Table:
        """Top-``n`` functions by own (tot) time, as a Table."""
        suffix = (f", {self.n_samples} samples"
                  if self.mode == "sample" else "")
        table = Table(
            ["function", "calls", "tottime_s", "cumtime_s", "tot_pct"],
            title=f"hotspots [{self.mode}] (top {n} of "
                  f"{len(self.hotspots)} functions, "
                  f"{self.wall_seconds:.3f}s wall{suffix})",
        )
        wall = self.wall_seconds or float("inf")
        for spot in self.hotspots[:n]:
            table.add_row([
                spot.function,
                spot.calls if spot.calls is not None else "-",
                round(spot.tottime, 6), round(spot.cumtime, 6),
                round(100.0 * spot.tottime / wall, 1),
            ])
        return table

    # -- process-level view --------------------------------------------
    def owner_table(self, n: int = 15) -> Table:
        """Top-``n`` simulated processes by attributed wall time."""
        table = Table(
            ["process", "wall_s", "wall_pct"],
            title=f"wall time by simulated process (top {n})",
        )
        wall = self.wall_seconds or float("inf")
        ranked = sorted(self.wall_by_owner.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        for owner, seconds in ranked[:n]:
            table.add_row([owner, round(seconds, 6),
                           round(100.0 * seconds / wall, 1)])
        return table

    # -- flamegraph export ---------------------------------------------
    def collapsed_stacks(self) -> str:
        """The folded-stack document (``stack count`` per line).

        Counts are integer microseconds of own time, directly
        consumable by ``flamegraph.pl`` / speedscope / inferno.  In
        ``sample`` mode the stacks are exact (captured whole); in
        ``cprofile`` mode they are reconstructed from the call graph.
        """
        lines = []
        for stack in sorted(self.folded):
            micros = int(round(self.folded[stack] * 1e6))
            if micros > 0:
                lines.append(f"{stack} {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path) -> int:
        """Write :meth:`collapsed_stacks` to ``path``; returns #lines."""
        text = self.collapsed_stacks()
        Path(path).write_text(text, encoding="utf-8")
        return text.count("\n")

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready digest (hotspots and owner attribution)."""
        return {
            "mode": self.mode,
            "wall_seconds": self.wall_seconds,
            "n_samples": self.n_samples,
            "hotspots": [
                {"function": s.function, "calls": s.calls,
                 "tottime": s.tottime, "cumtime": s.cumtime}
                for s in self.hotspots
            ],
            "wall_by_process": dict(self.wall_by_owner),
        }


class Profiler:
    """Profile one simulation run (or any callable) end to end.

    Combines per-process wall attribution (through the kernel's
    tracer hooks) with a function-level engine:

    * ``mode="sample"`` (default) — SIGPROF statistical sampling.
      Full stacks, exact flamegraphs, a few percent overhead.
    * ``mode="cprofile"`` — deterministic :mod:`cProfile`.  Exact
      call counts, 3–5× overhead on kernel-bound runs, graph-derived
      stacks.

    On platforms without ``setitimer`` (Windows), ``sample`` falls
    back to ``cprofile``.  Two usage patterns::

        # a) profile an experiment, feeding it the profiler's tracer
        profiler = Profiler()
        with profiler:
            result = experiments.run("e3", trace=profiler.tracer)
        profiler.report.hotspot_table().show()

        # b) profile any callable with ambient instrumentation
        report = Profiler().profile(my_simulation)

    ``trace=False`` skips the attribution tracer (engine only) for
    workloads that never touch the DES kernel.
    """

    def __init__(self, *, mode: str = "sample", trace: bool = True,
                 sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
                 max_events: int | None = 0):
        if mode not in ("sample", "cprofile"):
            raise ValueError(f"unknown profiler mode {mode!r}; "
                             f"use 'sample' or 'cprofile'")
        if mode == "sample" and not _StackSampler.available():
            mode = "cprofile"  # pragma: no cover - non-POSIX hosts
        self.mode = mode
        self.tracer: WallAttributionTracer | None = (
            WallAttributionTracer(max_events=max_events) if trace
            else None
        )
        self.report: ProfileReport | None = None
        self._sampler = (_StackSampler(sample_interval)
                         if mode == "sample" else None)
        self._profile = (cProfile.Profile()
                         if mode == "cprofile" else None)
        self._t0 = 0.0

    def __enter__(self) -> "Profiler":
        self._t0 = perf_counter()
        if self._sampler is not None:
            self._sampler.start()
        if self._profile is not None:
            self._profile.enable()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._profile is not None:
            self._profile.disable()
        if self._sampler is not None:
            self._sampler.stop()
        wall = perf_counter() - self._t0
        if exc_type is None:
            self.report = self._build_report(wall)

    def profile(self, func: Callable[..., Any], *args: Any,
                **kwargs: Any) -> ProfileReport:
        """Run ``func`` fully instrumented and return the report.

        The profiler's tracer is installed as the ambient default, so
        every :class:`~repro.des.Environment` the callable creates is
        attributed.  The callable's return value is available as
        ``report.result``.
        """
        with instrument(tracer=self.tracer):
            with self:
                value = func(*args, **kwargs)
        assert self.report is not None
        self.report.result = value
        return self.report

    # ------------------------------------------------------------------
    def _build_report(self, wall: float) -> ProfileReport:
        if self._profile is not None:
            hotspots, folded, n_samples = self._from_cprofile()
        else:
            hotspots, folded, n_samples = self._from_samples()
        wall_by_owner = (dict(self.tracer.wall_by_owner)
                         if self.tracer is not None else {})
        return ProfileReport(
            mode=self.mode, wall_seconds=wall, hotspots=hotspots,
            folded=folded, wall_by_owner=wall_by_owner,
            n_samples=n_samples, tracer=self.tracer,
        )

    def _from_cprofile(self):
        stats = pstats.Stats(self._profile).stats
        hotspots = [
            Hotspot(function=_frame_label(func), calls=nc,
                    tottime=tt, cumtime=ct)
            for func, (_cc, nc, tt, ct, _callers) in stats.items()
        ]
        hotspots.sort(key=lambda s: (-s.tottime, s.function))
        return hotspots, collapse_stats(stats), 0

    def _from_samples(self):
        sampler = self._sampler
        assert sampler is not None
        interval = sampler.interval
        own: dict[str, int] = {}
        cum: dict[str, int] = {}
        folded: dict[str, float] = {}
        for stack, hits in sampler.counts.items():
            labels = [_frame_label(frame) for frame in stack]
            if labels:
                leaf = labels[-1]
                own[leaf] = own.get(leaf, 0) + hits
                for label in set(labels):
                    cum[label] = cum.get(label, 0) + hits
                key = ";".join(labels)
                folded[key] = folded.get(key, 0.0) + hits * interval
        hotspots = [
            Hotspot(function=label, calls=None,
                    tottime=own.get(label, 0) * interval,
                    cumtime=hits * interval)
            for label, hits in cum.items()
        ]
        hotspots.sort(key=lambda s: (-s.tottime, -s.cumtime,
                                     s.function))
        return hotspots, folded, sampler.n_samples


# Windows has neither SIGPROF nor setitimer; make the fallback check
# explicit for readers on that platform.
if sys.platform == "win32":  # pragma: no cover
    _StackSampler.available = staticmethod(lambda: False)
