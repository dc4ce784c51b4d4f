"""Machine-readable run reports.

A :class:`RunReport` is the durable record of one experiment run: the
scalar KPIs the experiment chose to headline, aggregate statistics for
every instrument in the run's :class:`~repro.obs.metrics.MetricRegistry`
(histograms get 95% confidence intervals via
:func:`repro.utils.stats.confidence_interval`), a summary of the trace
when one was recorded, and the wall-clock cost.  Reports serialize to
plain JSON so perf trajectories can be diffed across commits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.utils.stats import batch_means, confidence_interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricRegistry
    from repro.obs.trace import Tracer

__all__ = ["RunReport", "sanitize_json"]

#: Use the method of batch means once a histogram holds this many
#: (typically autocorrelated) observations.
_BATCH_THRESHOLD = 200


def _histogram_ci(values: list[float]) -> tuple[float, float]:
    if len(values) >= _BATCH_THRESHOLD:
        values = batch_means(values, n_batches=20)
    return confidence_interval(values)


@dataclass
class RunReport:
    """Summary statistics and provenance of one experiment run."""

    experiment: str
    seed: int | None = None
    wall_seconds: float = 0.0
    #: Scalar KPIs recorded by the experiment itself.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Aggregates per instrument key (see ``MetricRegistry.snapshot``);
    #: histogram entries carry ``ci_mean``/``ci_half`` at 95%.
    stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: ``Tracer.summary()`` when the run was traced, else ``None``.
    trace: dict[str, Any] | None = None
    trace_path: str | None = None
    #: Replication metadata when the report pools several replicas
    #: (:func:`repro.parallel.run_replicated`): replica count, worker
    #: count, per-replica seeds and across-replica KPI statistics.
    #: ``None`` for ordinary single runs.
    replication: dict[str, Any] | None = None
    #: ``SLOWatcher.summary()`` when the run evaluated objectives:
    #: specs, in-flight breach events (sim-time only — survives
    #: ``strip_timings()``) and the final per-objective verdict.
    slo: dict[str, Any] | None = None

    @classmethod
    def from_run(
        cls,
        experiment: str,
        *,
        seed: int | None = None,
        wall_seconds: float = 0.0,
        metrics: dict[str, float] | None = None,
        registry: "MetricRegistry | None" = None,
        tracer: "Tracer | None" = None,
        trace_path: str | None = None,
        slo: dict[str, Any] | None = None,
    ) -> "RunReport":
        """Assemble a report from the run's live instruments."""
        stats: dict[str, dict[str, Any]] = {}
        if registry is not None:
            stats = registry.snapshot()
            for metric in registry:
                if metric.kind == "histogram" and metric.values:
                    mean, half = _histogram_ci(metric.values)
                    stats[metric.key]["ci_mean"] = mean
                    stats[metric.key]["ci_half"] = half
        return cls(
            experiment=experiment,
            seed=seed,
            wall_seconds=wall_seconds,
            metrics=dict(metrics or {}),
            stats=stats,
            trace=tracer.summary() if tracer is not None else None,
            trace_path=trace_path,
            slo=slo,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "experiment": self.experiment,
            "seed": self.seed,
            "wall_seconds": self.wall_seconds,
            "metrics": dict(self.metrics),
            "stats": self.stats,
        }
        if self.trace is not None:
            data["trace"] = self.trace
        if self.trace_path is not None:
            data["trace_path"] = self.trace_path
        if self.replication is not None:
            data["replication"] = self.replication
        if self.slo is not None:
            data["slo"] = self.slo
        return data

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(sanitize_json(self.to_dict()), indent=indent,
                          sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunReport":
        return cls(
            experiment=data["experiment"],
            seed=data.get("seed"),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            metrics=dict(data.get("metrics", {})),
            stats=dict(data.get("stats", {})),
            trace=data.get("trace"),
            trace_path=data.get("trace_path"),
            replication=data.get("replication"),
            slo=data.get("slo"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def summary_lines(self) -> list[str]:
        """Human-readable digest (the CLI ``report`` view)."""
        lines = [f"run report: {self.experiment} "
                 f"(seed={self.seed}, {self.wall_seconds:.3f}s wall)"]
        if self.replication is not None:
            lines.append(
                f"  replication: {self.replication.get('replicas')} "
                f"replicas x {self.replication.get('workers')} "
                f"worker(s)")
            failed = self.replication.get("failed_replicas") or []
            if failed:
                indices = ", ".join(str(f["index"]) for f in failed)
                lines.append(
                    f"  PARTIAL: {len(failed)} replica(s) failed "
                    f"every attempt (indices {indices})")
            resumed = self.replication.get("resumed") or 0
            if resumed:
                lines.append(
                    f"  resumed: {resumed} replica(s) loaded from "
                    f"checkpoint journal")
        for key in sorted(self.metrics):
            lines.append(f"  {key} = {self.metrics[key]:.6g}")
        if self.trace is not None:
            lines.append(f"  trace: {self.trace['n_events']} events "
                         f"{self.trace['by_kind']}")
        if self.slo is not None:
            verdict = "OK" if self.slo.get("ok") else "BREACHED"
            lines.append(
                f"  slo: {verdict} ({len(self.slo.get('specs', []))} "
                f"objective(s), "
                f"{len(self.slo.get('breaches', []))} breach(es))")
            for breach in self.slo.get("breaches", []):
                lines.append(
                    f"    breach {breach['slo']} at t={breach['t']:g}:"
                    f" {breach['value']:.6g} {breach['op']} "
                    f"{breach['threshold']:g} violated")
        if self.stats:
            lines.append(f"  instruments: {len(self.stats)}")
        return lines


def _sanitize_key(key: Any) -> str:
    """Dictionary keys must be strings; non-finite and numpy keys get
    the same treatment as values before stringification."""
    if isinstance(key, str):
        return key
    return str(sanitize_json(key))


def sanitize_json(value: Any) -> Any:
    """Recursively make a payload strict-JSON safe.

    The guarantee holds at **every nesting depth**, not just the top
    level: NaN/±inf become ``None`` (strict JSON has no spelling for
    them) wherever they appear — including inside nested KPI dicts,
    lists, tuples and numpy containers; numpy scalars (including the
    float32/float16 flavours that are *not* ``isinstance(..., float)``)
    collapse to Python numbers; numpy arrays become (sanitized)
    lists; dictionary keys become strings; and unknown objects fall
    back to ``str``.  The result round-trips through
    ``json.dumps(..., allow_nan=False)``.
    """
    if isinstance(value, dict):
        return {_sanitize_key(k): sanitize_json(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_json(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, str):
        return value
    # numpy: arrays and scalars both expose tolist(), which maps to
    # (nested) Python builtins; recurse so NaN/inf inside are caught.
    if hasattr(value, "tolist"):
        return sanitize_json(value.tolist())
    if hasattr(value, "item"):  # non-numpy scalar wrappers
        return sanitize_json(value.item())
    return str(value)
