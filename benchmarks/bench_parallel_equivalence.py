"""The CI ``parallel`` gate: fan-out must not change the science.

Two assertions per heavyweight experiment (e3, e13, e14, r1; e13 puts
the NoC's ``Traversal`` packets under the gate):

1. **Equivalence** — a replicated run merged from 4 worker processes
   is byte-identical (after :meth:`ExperimentResult.strip_timings`)
   to the same replication merged from a single worker.  This is the
   end-to-end form of the determinism matrix in
   ``tests/parallel/test_determinism.py``, on the experiments the
   paper tables actually come from.
2. **Consistency** — the pooled KPI means stay inside the min/max
   envelope of the replicas, and every replica's seed matches the
   pure derivation :func:`repro.parallel.replica_seed`.

A telemetry assertion rides along: a replicated run with the sim-time
probe and an SLO watcher enabled (both land in the deterministic
payload — series bins, breach events, final verdicts) merges
byte-identically at workers 1 and 4.

A third, chaos-flavoured assertion rides along: a replicated run with
**injected worker faults** (a crash and a raise, retried by the
supervisor on the same derived seeds) merges byte-identically to the
fault-free single-worker run — the end-to-end form of the chaos
determinism matrix in ``tests/parallel/test_chaos.py``.

A speedup assertion deliberately does **not** live here: wall-clock
ratios depend on the runner's core count, so the CI job records the
measured speedup in its log (``report.wall_seconds`` of ``repro run e3
--replicas 8 --workers 1`` vs ``--workers 4``) instead of gating on it
where a loaded 2-core host would flake.
"""

from __future__ import annotations

import json

from repro.parallel import FaultPlan, replica_seed, run_replicated

#: The experiments whose published tables the gate protects.
_GATED = ("e3", "e13", "e14", "r1")
_REPLICAS = 3


def _stripped(result) -> str:
    return json.dumps(result.strip_timings(), sort_keys=True)


def bench_parallel_equivalence_e3():
    _assert_equivalent("e3")


def bench_parallel_equivalence_e13():
    _assert_equivalent("e13")


def bench_parallel_equivalence_e14():
    _assert_equivalent("e14")


def bench_parallel_equivalence_r1():
    _assert_equivalent("r1")


def bench_parallel_equivalence_probe_slo():
    """Telemetry gate: the sim-time probe series and the SLO record
    are part of the deterministic payload — a probed run with an SLO
    watcher merges byte-identically at workers 1 and 4, series bins
    included."""
    slo = "dpm_energy_j{policy=oracle}:last > 0"
    serial = run_replicated("e14", replicas=_REPLICAS, workers=1,
                            probe=0.5, slo=slo)
    fanned = run_replicated("e14", replicas=_REPLICAS, workers=4,
                            probe=0.5, slo=slo)
    assert _stripped(serial) == _stripped(fanned), (
        "e14: probed workers=4 merge differs from workers=1"
    )
    slo_record = fanned.report.slo
    assert slo_record is not None and slo_record["ok"], (
        "e14: oracle DPM energy SLO unexpectedly breached"
    )
    series = [key for key, entry in fanned.report.stats.items()
              if entry.get("kind") == "timeseries"]
    assert any(key.startswith("dpm_energy_j") for key in series), (
        "e14: merged report lost the dpm_energy_j series"
    )


def bench_parallel_equivalence_injected_crash():
    """Supervisor gate: a sweep surviving an injected worker crash
    (plus a raised fault) merges byte-identically to a clean run."""
    clean = run_replicated("e14", replicas=_REPLICAS, workers=1)
    chaotic = run_replicated(
        "e14", replicas=_REPLICAS, workers=4,
        fault_plan=FaultPlan().crash(0).raise_(2),
        backoff_base=0.01)
    assert _stripped(chaotic) == _stripped(clean), (
        "e14: merge with injected crash/raise differs from the "
        "fault-free run"
    )
    replication = chaotic.report.replication
    assert replication["attempts"][0] == 2, (
        "crashed replica 0 was not retried"
    )
    assert replication["failed_replicas"] == []


def _assert_equivalent(exp_id: str) -> None:
    assert exp_id in _GATED
    serial = run_replicated(exp_id, replicas=_REPLICAS, workers=1)
    fanned = run_replicated(exp_id, replicas=_REPLICAS, workers=4)
    assert _stripped(serial) == _stripped(fanned), (
        f"{exp_id}: workers=4 merge differs from workers=1"
    )

    replication = fanned.report.replication
    assert replication["seeds"] == [
        replica_seed(0, i) for i in range(_REPLICAS)
    ]
    for name, stats in replication["kpis"].items():
        assert stats["min"] <= stats["mean"] <= stats["max"], (
            f"{exp_id}: pooled mean of {name} outside replica "
            f"envelope"
        )
        assert fanned.metrics[name] == stats["mean"]
