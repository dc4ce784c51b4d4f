"""Differential corpus sweeps through the replication engine.

Every scenario file is runnable as the dynamic experiment id
``scenario:<path>`` (resolved by :func:`repro.experiments.get`), which
makes the whole :mod:`repro.parallel` machinery — replication,
supervised retries, deterministic merge — available to generated
corpora.  :func:`sweep` exploits that: it pushes each corpus file
through :func:`repro.parallel.run_replicated` once per worker count
and diffs the ``strip_timings()`` payloads byte-for-byte, so a
scheduling-order bug that only shows up under real parallelism fails
loudly on corpus inputs, not just on the hand-written experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.scenario.codec import Scenario

__all__ = ["evaluate_scenario", "sweep", "SweepEntry", "SweepReport"]

#: Simulated horizon for scenario evaluation runs.  Short on purpose:
#: a sweep visits many files and the differential gate cares about
#: byte-stability of the merged payload, not about tight confidence
#: intervals.
DEFAULT_HORIZON = 2.0
DEFAULT_WARMUP = 0.2


def evaluate_scenario(ctx, scenario: Scenario,
                      horizon: float = DEFAULT_HORIZON,
                      warmup: float = DEFAULT_WARMUP) -> dict:
    """Runner body behind ``scenario:<path>`` experiments.

    Application triples are simulated with stochastic sources (so the
    per-replica seed matters and replication pools genuinely different
    runs); task-graph triples get the deterministic analytical
    treatment (utilization, critical path, induced communication).
    Headline KPIs land on ``ctx`` the same way registered experiments
    record theirs.
    """
    raw: dict[str, object] = {"scenario": scenario.name}
    graph = scenario.graph
    if graph is not None:
        raw["n_nodes"] = float(len(graph))
    if (scenario.application is not None
            and scenario.platform is not None
            and scenario.mapping is not None):
        from repro.core.evaluation import SimulationEvaluator

        evaluator = SimulationEvaluator(
            scenario.application,
            scenario.platform,
            scenario.mapping,
            seed=ctx.seed,
            deterministic_sources=False,
        )
        result = evaluator.evaluate(horizon, warmup=warmup)
        ctx.record("mean_latency", result.qos.mean_latency)
        ctx.record("throughput", result.qos.throughput)
        ctx.record("loss_rate", result.qos.loss_rate)
        ctx.record("energy", result.metrics["energy"])
        ctx.record("average_power", result.metrics["average_power"])
        if scenario.qos is not None:
            violations = scenario.qos.check(result.qos)
            ctx.record("qos_violations", float(len(violations)))
            raw["violations"] = [str(v) for v in violations]
        raw["qos"] = result.qos.as_dict()
        raw["buffer_occupancy"] = dict(result.buffer_occupancy)
    elif (scenario.task_graph is not None
          and scenario.platform is not None
          and scenario.mapping is not None):
        tg = scenario.task_graph
        platform = scenario.platform
        mapping = scenario.mapping
        f_max = max(pe.frequency for pe in platform.pes)
        utils = {pe.name: 0.0 for pe in platform.pes}
        if tg.period:
            for task in tg.tasks:
                pe = platform.pe(mapping.pe_of(task.name))
                utils[pe.name] += (task.cycles / tg.period
                                   / pe.frequency)
        ctx.record("critical_path_s",
                   tg.critical_path_cycles() / f_max)
        ctx.record("max_utilization", max(utils.values(), default=0.0))
        ctx.record("comm_bits", mapping.communication_bits(tg))
        ctx.record("comm_energy",
                   mapping.communication_energy(tg, platform))
        raw["utilizations"] = utils
    else:
        # Partial scenario (e.g. platform-only): static figures only.
        if scenario.platform is not None:
            ctx.record("idle_power",
                       scenario.platform.total_idle_power())
        if scenario.application is not None:
            ctx.record("compute_demand",
                       scenario.application.total_compute_demand())
    return raw


@dataclass
class SweepEntry:
    """Differential verdict for one corpus file."""

    path: Path
    #: stripped payloads agreed across every worker count.
    identical: bool
    worker_counts: tuple[int, ...]
    kpis: dict[str, float] = field(default_factory=dict)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.identical and self.error is None


@dataclass
class SweepReport:
    """Outcome of one differential corpus sweep."""

    replicas: int
    seed: int
    entries: list[SweepEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    def failures(self) -> list[SweepEntry]:
        return [entry for entry in self.entries if not entry.ok]

    def summary(self) -> str:
        good = sum(entry.ok for entry in self.entries)
        return (f"sweep: {good}/{len(self.entries)} scenarios "
                f"byte-identical across workers "
                f"(replicas={self.replicas}, seed={self.seed})")


def _stripped_payload(result) -> str:
    return json.dumps(result.strip_timings(), sort_keys=True)


def sweep(
    paths: Iterable[str | Path],
    replicas: int = 2,
    seed: int = 0,
    worker_counts: Sequence[int] = (1, 4),
) -> SweepReport:
    """Differentially sweep scenario files through replication.

    Each file becomes the experiment ``scenario:<path>`` and is
    replicated once per entry of ``worker_counts``; the stripped
    payloads must agree byte-for-byte (the deterministic-merge
    contract).  A scenario whose run raises is reported as a failing
    entry, not a crashed sweep.
    """
    from repro.parallel import run_replicated

    report = SweepReport(replicas=replicas, seed=seed)
    counts = tuple(int(w) for w in worker_counts) or (1,)
    for path in paths:
        path = Path(path)
        exp_id = f"scenario:{path}"
        payloads: list[str] = []
        kpis: dict[str, float] = {}
        error = None
        for workers in counts:
            try:
                result = run_replicated(
                    exp_id, replicas=replicas, workers=workers,
                    seed=seed)
            except Exception as exc:  # noqa: BLE001 - report, not die
                error = f"workers={workers}: {exc}"
                break
            payloads.append(_stripped_payload(result))
            kpis = dict(result.metrics)
        report.entries.append(SweepEntry(
            path=path,
            identical=(error is None
                       and len(set(payloads)) <= 1),
            worker_counts=counts,
            kpis=kpis,
            error=error,
        ))
    return report
