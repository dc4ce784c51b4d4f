"""The ``repro bench`` harness: measured performance trajectories.

Runs registered experiments through :func:`repro.experiments.run`
``repeat`` times each (same seed every repetition, so the simulated
workload is bit-identical and wall-time variance is pure host noise)
and collects, per experiment:

* wall-clock seconds (all samples plus median/mean/min/max and a
  Student-t confidence interval — batch means kick in automatically
  for large sample counts, matching the run-report convention);
* the always-on kernel counters (:func:`repro.des.kernel_counters`):
  events scheduled/executed, peak heap depth, environments built;
* throughput in executed kernel events per second (``None`` for the
  purely analytical experiments that never touch the DES kernel);
* peak RSS of the process (``ru_maxrss``), and the experiment's
  deterministic headline KPIs.

The result serializes as ``BENCH_perf.json`` — a versioned document
(:data:`SCHEMA_NAME`/:data:`SCHEMA_VERSION`) that is byte-stable
across runs modulo the timing fields, so perf trajectories can be
committed, diffed and gated (see :mod:`repro.obs.perf.compare`).
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.obs.report import sanitize_json
from repro.utils.stats import batch_means, confidence_interval
from repro.utils.tables import Table

__all__ = ["SCHEMA_NAME", "SCHEMA_VERSION", "TIMING_FIELDS",
           "measure_experiment", "run_bench", "write_document",
           "load_document", "validate_document", "strip_timings",
           "summary_table"]

SCHEMA_NAME = "repro.bench_perf"
SCHEMA_VERSION = 1

#: Per-experiment fields whose values legitimately differ between two
#: runs of the same code on the same machine.  Everything else in the
#: document is byte-stable for a fixed (ids, repeat, seed) invocation.
TIMING_FIELDS = ("wall_seconds", "events_per_sec", "peak_rss_kb")

#: Same convention as run reports: fall back to batch means once a
#: sample list is large enough to be treated as autocorrelated.
_BATCH_THRESHOLD = 200


def _peak_rss_kb() -> int | None:
    """Process peak RSS in KiB (``None`` where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX hosts
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak //= 1024
    return int(peak)


def _timing_stats(samples: Sequence[float]) -> dict[str, Any]:
    values = list(samples)
    ci_values = (batch_means(values, n_batches=20)
                 if len(values) >= _BATCH_THRESHOLD else values)
    _mean, half = confidence_interval(ci_values)
    return {
        "samples": values,
        "median": statistics.median(values),
        "mean": statistics.fmean(values),
        "min": min(values),
        "max": max(values),
        "ci_half": half if len(values) > 1 else None,
    }


def _timed_run(payload: tuple) -> tuple:
    """One timed repetition (also the process-pool worker body).

    Resets the (process-local) kernel counters, runs the experiment,
    and returns ``(wall, counter_snapshot, kpis)`` — everything the
    parent needs, since a worker's counters are invisible to it.
    """
    from repro import experiments
    from repro.des import kernel_counters

    exp_id, seed = payload
    # Collect leftovers from earlier runs in this process before the
    # reset, so that freeing them is not timed as part of this
    # repetition (same hygiene as the replica worker in
    # repro.parallel.engine).
    gc.collect()
    counters = kernel_counters()
    counters.reset()
    start = perf_counter()
    result = experiments.run(exp_id, seed=seed)
    wall = perf_counter() - start
    return wall, counters.snapshot(), dict(result.metrics)


def measure_experiment(exp_id: str, *, repeat: int = 3,
                       seed: int = 0,
                       warmup: bool = True,
                       workers: int = 1,
                       replicas: int = 1,
                       live: bool = False) -> dict[str, Any]:
    """Measure one experiment; returns its per-experiment record.

    ``warmup`` runs the experiment once untimed first, so lazy imports
    and allocator/caching warm-up never pollute the first sample.

    ``replicas > 1`` measures *replicated* runs: each repetition is
    one :func:`repro.parallel.run_replicated` call fanning ``replicas``
    seeds over ``workers`` processes — what the scaling gate times.
    With ``replicas == 1`` and ``workers > 1``, the repetitions
    themselves spread over the pool (each in a fresh process, via
    :func:`repro.parallel.parallel_map`); kernel counters and KPIs
    ship back in the worker's return value.
    """
    from repro import experiments

    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    experiment = experiments.get(exp_id)
    if warmup:
        experiments.run(exp_id, seed=seed)
    walls: list[float] = []
    rates: list[float] = []
    kernel: dict[str, int] = {}
    deterministic = True
    kpis: dict[str, float] = {}
    if replicas > 1:
        from repro.des import kernel_counters
        from repro.parallel import run_replicated

        counters = kernel_counters()
        samples = []
        for _ in range(repeat):
            # Same pre-reset finalization as _timed_run: keep earlier
            # repetitions' GC side effects out of this snapshot.
            gc.collect()
            counters.reset()
            start = perf_counter()
            result = run_replicated(exp_id, replicas=replicas,
                                    workers=workers, seed=seed,
                                    live=live)
            wall = perf_counter() - start
            # run_replicated merged the workers' counter snapshots
            # into this process's counters, so the usual snapshot
            # sees the cross-process kernel activity.
            samples.append((wall, counters.snapshot(),
                            dict(result.metrics)))
    else:
        from repro.parallel import parallel_map

        samples = parallel_map(
            _timed_run, [(exp_id, seed)] * repeat, workers=workers)
    for rep, (wall, snap, rep_kpis) in enumerate(samples):
        walls.append(wall)
        if snap["events_executed"]:
            rates.append(snap["events_executed"] / wall)
        if rep == 0:
            kernel = snap
            kpis = rep_kpis
        elif snap != kernel or rep_kpis != kpis:
            deterministic = False
    record: dict[str, Any] = {
        "id": experiment.id,
        "claim": experiment.claim,
        "repeat": repeat,
        "seed": seed,
        "deterministic": deterministic,
        "wall_seconds": _timing_stats(walls),
        "events_scheduled": kernel["events_scheduled"],
        "events_executed": kernel["events_executed"],
        "peak_heap_depth": kernel["peak_heap_depth"],
        "environments": kernel["environments"],
        "events_per_sec": (_timing_stats(rates) if rates else None),
        "peak_rss_kb": _peak_rss_kb(),
        "kpis": sanitize_json(kpis),
    }
    # Replica count is part of the measured workload; worker count is
    # execution geometry (stripped by :func:`strip_timings`).  Neither
    # appears at its default, so single-run documents keep their
    # pre-replication byte layout.
    if replicas > 1:
        record["replicas"] = replicas
    if workers > 1:
        record["workers"] = workers
    return record


def run_bench(ids: Sequence[str], *, repeat: int = 3, seed: int = 0,
              workers: int = 1, replicas: int = 1,
              live: bool = False,
              progress: Callable[[str], None] | None = None
              ) -> dict[str, Any]:
    """Measure ``ids`` and assemble the full bench document.

    ``live`` streams per-replica progress to stderr while each
    replicated repetition runs (display only; ignored when
    ``replicas == 1`` since plain repetitions have no sweep to
    watch).
    """
    records = []
    for exp_id in ids:
        if progress is not None:
            progress(exp_id)
        records.append(
            measure_experiment(exp_id, repeat=repeat, seed=seed,
                               workers=workers, replicas=replicas,
                               live=live))
    meta: dict[str, Any] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "repeat": repeat,
        "seed": seed,
        "ids": [r["id"] for r in records],
    }
    if replicas > 1:
        meta["replicas"] = replicas
    if workers > 1:
        meta["workers"] = workers
    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "meta": meta,
        "experiments": records,
    }


def write_document(document: dict[str, Any], path) -> Path:
    """Serialize a bench document (sorted keys, trailing newline)."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(sanitize_json(document), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    return out


def load_document(path) -> dict[str, Any]:
    """Load and validate a bench document; raises ``ValueError`` on a
    malformed or wrong-schema file."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    errors = validate_document(document)
    if errors:
        raise ValueError(
            f"{path} is not a valid {SCHEMA_NAME} document: "
            + "; ".join(errors)
        )
    return document


def validate_document(document: Any) -> list[str]:
    """Validate against the published schema; returns error strings
    (empty list == valid)."""
    errors: list[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    if document.get("schema") != SCHEMA_NAME:
        errors.append(f"schema must be {SCHEMA_NAME!r}, "
                      f"got {document.get('schema')!r}")
    if document.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version must be {SCHEMA_VERSION}, "
                      f"got {document.get('schema_version')!r}")
    meta = document.get("meta")
    if not isinstance(meta, dict):
        errors.append("meta missing or not an object")
    else:
        for field in ("python", "platform", "repeat", "seed", "ids"):
            if field not in meta:
                errors.append(f"meta.{field} missing")
    experiments = document.get("experiments")
    if not isinstance(experiments, list) or not experiments:
        errors.append("experiments missing or empty")
        return errors
    for index, record in enumerate(experiments):
        where = f"experiments[{index}]"
        if not isinstance(record, dict):
            errors.append(f"{where} is not an object")
            continue
        for field in ("id", "repeat", "seed", "wall_seconds",
                      "events_executed", "events_scheduled",
                      "peak_heap_depth", "kpis"):
            if field not in record:
                errors.append(f"{where}.{field} missing")
        timing = record.get("wall_seconds")
        if isinstance(timing, dict):
            for field in ("samples", "median", "mean", "min", "max"):
                if field not in timing:
                    errors.append(
                        f"{where}.wall_seconds.{field} missing")
            samples = timing.get("samples")
            if (isinstance(samples, list)
                    and isinstance(record.get("repeat"), int)
                    and len(samples) != record["repeat"]):
                errors.append(
                    f"{where}.wall_seconds.samples has "
                    f"{len(samples)} entries for repeat="
                    f"{record['repeat']}")
        elif "wall_seconds" in record:
            errors.append(f"{where}.wall_seconds is not an object")
    seen = [r.get("id") for r in experiments if isinstance(r, dict)]
    if len(seen) != len(set(seen)):
        errors.append("duplicate experiment ids")
    return errors


def strip_timings(document: dict[str, Any]) -> dict[str, Any]:
    """Copy of the document with every timing field removed — the
    byte-stable remainder two runs of the same code must agree on."""
    stripped = json.loads(json.dumps(sanitize_json(document)))
    # Worker count is execution geometry, not workload: documents
    # measured with different pool sizes must agree byte-for-byte
    # after stripping (``replicas`` stays — it changes the measured
    # workload).
    meta = stripped.get("meta")
    if isinstance(meta, dict):
        meta.pop("workers", None)
    for record in stripped.get("experiments", []):
        for field in TIMING_FIELDS:
            record.pop(field, None)
        record.pop("workers", None)
    return stripped


def summary_table(document: dict[str, Any]) -> Table:
    """Human-readable one-line-per-experiment digest."""
    meta = document.get("meta", {})
    table = Table(
        ["id", "median_s", "mean_s", "ci_half_s", "events", "events/s",
         "peak_heap"],
        title=f"bench: repeat={meta.get('repeat')} "
              f"seed={meta.get('seed')} (py{meta.get('python')})",
    )
    for record in document.get("experiments", []):
        timing = record["wall_seconds"]
        rate = record.get("events_per_sec")
        table.add_row([
            record["id"],
            round(timing["median"], 4),
            round(timing["mean"], 4),
            (round(timing["ci_half"], 4)
             if timing.get("ci_half") is not None else "-"),
            record["events_executed"],
            (format(int(rate["median"]), ",")
             if isinstance(rate, dict) else "-"),
            record["peak_heap_depth"],
        ])
    return table
