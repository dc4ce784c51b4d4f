"""The holistic design flow — the paper's central methodological claim.

The paper argues that distributed multimedia design "should be, at the
same time, node- and network-centric with emphasis on low-power" (§1) and
sketches the flow: model the application, model the architecture, map one
onto the other, evaluate (by simulation or analysis), check constraints
and QoS, and iterate.  :class:`HolisticDesignFlow` automates exactly that
loop over a candidate mapping set and reports the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.application import ApplicationGraph
from repro.core.architecture import Platform
from repro.core.constraints import ConstraintViolation, DesignConstraints
from repro.core.evaluation import (
    AnalyticalEvaluator,
    EvaluationResult,
    SimulationEvaluator,
)
from repro.core.exploration import random_mappings
from repro.core.mapping import Mapping
from repro.core.qos import QoSSpec, QoSViolation

__all__ = ["DesignOutcome", "DesignReport", "HolisticDesignFlow"]


@dataclass
class DesignOutcome:
    """Verdict for a single candidate design point."""

    mapping: Mapping
    result: EvaluationResult
    qos_violations: list[QoSViolation] = field(default_factory=list)
    constraint_violations: list[ConstraintViolation] = field(
        default_factory=list
    )

    @property
    def feasible(self) -> bool:
        """True when no QoS bound and no design constraint is violated."""
        return not self.qos_violations and not self.constraint_violations


@dataclass
class DesignReport:
    """Result of a full design-flow run."""

    outcomes: list[DesignOutcome] = field(default_factory=list)
    best: DesignOutcome | None = None
    screened_out: int = 0

    @property
    def feasible_count(self) -> int:
        """Number of feasible candidates found."""
        return sum(1 for o in self.outcomes if o.feasible)

    @property
    def succeeded(self) -> bool:
        """True when at least one feasible design exists."""
        return self.best is not None


class HolisticDesignFlow:
    """Map → evaluate → check → iterate, over a candidate mapping set.

    Parameters
    ----------
    app, platform:
        The design problem.
    qos:
        End-to-end QoS specification the stream must satisfy.
    constraints:
        System budget constraints (power, energy, ...).
    objective:
        Metric minimized among feasible designs (default: average power,
        the battery-driven regime of §1).
    horizon:
        Simulation horizon per candidate, seconds.
    analytical_prescreen:
        When true, candidates whose *analytical* utilization estimate
        shows an overloaded PE are rejected without simulation — the
        division of labour §2.2 advocates (fast analysis to prune, slow
        simulation to confirm).

    Examples
    --------
    See ``examples/quickstart.py`` for an end-to-end run.
    """

    def __init__(
        self,
        app: ApplicationGraph,
        platform: Platform,
        qos: QoSSpec,
        constraints: DesignConstraints | None = None,
        objective: str = "average_power",
        horizon: float = 10.0,
        seed: int = 0,
        analytical_prescreen: bool = True,
    ):
        app.validate()
        self.app = app
        self.platform = platform
        self.qos = qos
        self.constraints = constraints or DesignConstraints()
        self.objective = objective
        self.horizon = horizon
        self.seed = seed
        self.analytical_prescreen = analytical_prescreen

    # ------------------------------------------------------------------
    def candidate_mappings(self, count: int = 32) -> list[Mapping]:
        """Default candidate set: random mappings plus the single-PE and
        load-spread heuristics."""
        candidates = random_mappings(
            self.app, self.platform, count, seed=self.seed
        )
        names = [p.name for p in self.app.processes]
        pes = self.platform.pe_names()
        # Everything on one PE (cheapest communication).
        candidates.append(Mapping({n: pes[0] for n in names}))
        # Round-robin spread (cheapest contention).
        candidates.append(
            Mapping({n: pes[i % len(pes)] for i, n in enumerate(names)})
        )
        return candidates

    def prescreen(self, mapping: Mapping) -> bool:
        """Fast analytical feasibility check; True = worth simulating."""
        analytical = AnalyticalEvaluator(self.app, self.platform, mapping)
        utils = analytical.pe_utilizations()
        return all(u < 1.0 for u in utils.values())

    def run(self, mappings: Iterable[Mapping] | None = None
            ) -> DesignReport:
        """Execute the flow and return a :class:`DesignReport`."""
        candidates = (
            list(mappings) if mappings is not None
            else self.candidate_mappings()
        )
        report = DesignReport()
        for mapping in candidates:
            if self.analytical_prescreen and not self.prescreen(mapping):
                report.screened_out += 1
                continue
            evaluator = SimulationEvaluator(
                self.app, self.platform, mapping, seed=self.seed,
                token_deadline=self.qos.max_latency,
            )
            result = evaluator.evaluate(self.horizon)
            outcome = DesignOutcome(
                mapping=mapping,
                result=result,
                qos_violations=self.qos.check(result.qos),
                constraint_violations=self.constraints.check(
                    result.metrics
                ),
            )
            report.outcomes.append(outcome)
        feasible = [o for o in report.outcomes if o.feasible]
        if feasible:
            report.best = min(
                feasible,
                key=lambda o: o.result.metrics.get(
                    self.objective, float("inf")
                ),
            )
        return report
