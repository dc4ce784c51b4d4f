"""Observability: tracing, metrics and run reports for every subsystem.

The paper's holistic thesis is that co-design decisions must be judged
by *measured* end-to-end behaviour.  This package is the measurement
substrate the rest of :mod:`repro` reports through:

* :mod:`repro.obs.trace` — a :class:`Tracer` that records kernel
  schedule/step/process events as structured events and spans, with
  JSONL export and per-process timelines;
* :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments collected in a shared
  :class:`MetricRegistry`;
* :mod:`repro.obs.timeseries` — the :class:`TimeSeries` instrument
  (fixed-memory KPI-over-sim-time series) and the :class:`Probe`
  that snapshots registry metrics and kernel counters at a
  configurable sim-time interval;
* :mod:`repro.obs.slo` — declarative :class:`SLOSpec` objectives over
  time series, evaluated in-flight by an :class:`SLOWatcher` and
  recorded in the run report;
* :mod:`repro.obs.dashboard` — :func:`render_html`, a self-contained
  HTML dashboard (SVG sparklines, KPI tables, SLO breach timeline)
  for any run report;
* :mod:`repro.obs.report` — the :class:`RunReport` summary (scalar
  KPIs plus aggregate statistics with confidence intervals)
  serializable to JSON;
* :mod:`repro.obs.context` — :func:`instrument`, a context manager
  that makes a tracer/registry the ambient default so deeply nested
  models (every :class:`~repro.des.Environment` created inside an
  experiment) pick them up without explicit plumbing;
* :mod:`repro.obs.perf` — performance observability on top of the
  above: the :class:`~repro.obs.perf.Profiler` (cProfile or sampled
  hotspots + wall-clock attribution to simulated processes +
  flamegraph export), behind ``repro run --profile``.

Instrumentation is strictly opt-in: with no tracer or registry
attached, every hook in the kernel and the subsystem models reduces to
a single ``is None`` check.
"""

from repro.obs.context import (
    active_metrics,
    active_probe,
    active_tracer,
    instrument,
)
from repro.obs.dashboard import render_html
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)
from repro.obs.perf import Profiler
from repro.obs.report import RunReport, sanitize_json
from repro.obs.slo import SLOSpec, SLOWatcher, as_slo_specs
from repro.obs.timeseries import (
    Probe,
    ProbeSpec,
    TimeSeries,
    as_probe_spec,
)
from repro.obs.trace import Span, TraceEvent, Tracer

__all__ = [
    "sanitize_json",
    "Profiler",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "Probe",
    "ProbeSpec",
    "RunReport",
    "SLOSpec",
    "SLOWatcher",
    "Span",
    "TimeSeries",
    "TraceEvent",
    "Tracer",
    "active_metrics",
    "active_probe",
    "active_tracer",
    "as_probe_spec",
    "as_slo_specs",
    "instrument",
    "render_html",
]
