"""Performance observability: the wall-clock profiler.

:mod:`repro.obs.perf.profiler` holds :class:`Profiler`: cProfile or
sampled hotspots, wall-clock attribution to simulated processes (via
the kernel's tracer hooks) and collapsed-stack (flamegraph) export.
``repro run <ids> --profile`` drives it from the command line.

See ``docs/profiling.md`` for usage.
"""

from repro.obs.perf.profiler import (
    Hotspot,
    ProfileReport,
    Profiler,
    WallAttributionTracer,
    collapse_stats,
)

__all__ = [
    "Hotspot",
    "ProfileReport",
    "Profiler",
    "WallAttributionTracer",
    "collapse_stats",
]
