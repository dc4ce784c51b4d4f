"""Diagnostic records and the static-analysis rule catalog.

Every check in :mod:`repro.check` — the Layer-1 model verifier, the
Layer-2 simulation lint, and the Layer-3 flow analyzer
(:mod:`repro.check.simflow`) — reports through one vocabulary: a
:class:`Rule` describes *what class of defect* a check detects (stable
id, default severity, rationale, fix hint), and a :class:`Diagnostic`
is *one concrete finding* (which rule fired, where, and why).

The catalog below is the single source of truth: the verifier and the
linter both look their rules up here, ``docs/static_analysis.md``
documents exactly these ids, and the test suite asserts the two stay
in sync.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping

__all__ = [
    "Severity",
    "Rule",
    "Diagnostic",
    "RULES",
    "rule",
    "make_diagnostic",
    "max_severity",
    "has_errors",
    "diagnostics_to_dict",
    "diagnostics_to_json",
    "format_diagnostic",
    "ModelVerificationError",
]


class Severity(IntEnum):
    """How bad a finding is; ordering allows threshold comparisons."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()

    @classmethod
    def parse(cls, label: str) -> "Severity":
        """Parse ``"error"``/``"warning"``/``"info"`` (case-insensitive)."""
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {label!r}") from None


@dataclass(frozen=True)
class Rule:
    """One entry of the static-analysis rule catalog.

    Parameters
    ----------
    id:
        Stable identifier: ``RC1xx`` for model-verifier rules,
        ``SL2xx`` for simulation-lint rules, ``SF3xx`` for
        flow-analysis rules.  Ids never change meaning; retired rules
        are not reused.
    title:
        Short human label ("deadlock cycle", "unseeded RNG").
    severity:
        Default severity of findings (a check may not override upward).
    rationale:
        Why the defect matters for a DES-based design flow.
    fix_hint:
        The standard remedy, shown with every finding.
    """

    id: str
    title: str
    severity: Severity
    rationale: str
    fix_hint: str


@dataclass
class Diagnostic:
    """One concrete finding of a static check.

    Attributes
    ----------
    rule:
        Catalog id of the rule that fired (e.g. ``"RC103"``).
    severity:
        Severity of this finding.
    message:
        What was found, with model/code specifics interpolated.
    subject:
        Where: a model element (``"app:pipeline/process:enc"``) or a
        source path for lint findings.
    line:
        1-based source line for lint findings; ``None`` for model
        findings.
    fix_hint:
        Remedy, defaulted from the rule catalog.
    """

    rule: str
    severity: Severity
    message: str
    subject: str
    line: int | None = None
    fix_hint: str = ""

    @property
    def location(self) -> str:
        """``subject`` or ``subject:line`` when a line is known."""
        if self.line is None:
            return self.subject
        return f"{self.subject}:{self.line}"

    def to_dict(self) -> dict:
        """JSON-ready representation (stable key order via sort_keys)."""
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "message": self.message,
            "subject": self.subject,
            "line": self.line,
            "fix_hint": self.fix_hint,
        }

    def __str__(self) -> str:
        return format_diagnostic(self)


def format_diagnostic(diag: Diagnostic) -> str:
    """One-line human rendering: ``location: severity RC101: message``."""
    return (
        f"{diag.location}: {diag.severity} {diag.rule}: {diag.message}"
    )


class ModelVerificationError(ValueError):
    """Raised when a pre-flight model check finds error diagnostics.

    Attributes
    ----------
    diagnostics:
        Every diagnostic of the failed check (including warnings).
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics
                  if d.severity >= Severity.ERROR]
        lines = "; ".join(format_diagnostic(d) for d in errors[:5])
        more = len(errors) - 5
        if more > 0:
            lines += f"; and {more} more"
        super().__init__(
            f"model verification failed with {len(errors)} error(s): "
            f"{lines}"
        )


# ----------------------------------------------------------------------
# Rule catalog
# ----------------------------------------------------------------------
def _catalog(rules: Iterable[Rule]) -> dict[str, Rule]:
    out: dict[str, Rule] = {}
    for entry in rules:
        if entry.id in out:
            raise ValueError(f"duplicate rule id {entry.id}")
        out[entry.id] = entry
    return out


#: Every static-analysis rule, keyed by id.  ``RC1xx`` = model
#: verifier (Layer 1), ``SL2xx`` = simulation lint (Layer 2),
#: ``SF3xx`` = flow analysis (Layer 3).
RULES: Mapping[str, Rule] = _catalog([
    # ---- Layer 1: process/task-graph structure ----------------------
    Rule(
        "RC101", "unreachable process", Severity.ERROR,
        "A process no rated source can reach never activates; the "
        "simulation silently computes QoS over a smaller graph than "
        "the designer modeled.",
        "Connect the process to a rated source or remove it.",
    ),
    Rule(
        "RC102", "disconnected graph", Severity.WARNING,
        "A weakly-disconnected fragment is almost always a modeling "
        "mistake: the fragments share no tokens yet get mapped and "
        "evaluated as one application.",
        "Split the model into separate graphs or add the missing "
        "channel/dependency.",
    ),
    Rule(
        "RC103", "deadlock cycle", Severity.ERROR,
        "Process-network channels carry no initial tokens, so every "
        "directed cycle is a guaranteed deadlock: each process in the "
        "cycle waits forever on its predecessor.",
        "Break the cycle or model the feedback path outside the token "
        "flow.",
    ),
    Rule(
        "RC104", "source without rate", Severity.ERROR,
        "A source process with no activation rate never emits tokens; "
        "everything downstream starves.",
        "Set ProcessNode.rate_hz on every source process.",
    ),
    Rule(
        "RC105", "rate on non-source", Severity.WARNING,
        "A rate on a process with input channels is ignored by the "
        "evaluator (non-sources activate on input tokens); the model "
        "claims a behaviour the simulation does not implement.",
        "Drop rate_hz from internal processes, or remove their input "
        "channels to make them sources.",
    ),
    Rule(
        "RC106", "join rate mismatch", Severity.WARNING,
        "A join consumes one token per input per activation; inputs "
        "fed at different rates make the slower input the bottleneck "
        "and the faster input's buffer overflow.",
        "Equalize the upstream source rates or add an explicit "
        "down-sampling process before the join.",
    ),
    Rule(
        "RC107", "zero-volume dependency", Severity.WARNING,
        "A dependency carrying zero bits creates scheduling precedence "
        "without communication, silently serializing otherwise "
        "independent subgraphs.",
        "Give the edge its real control-message volume, or delete it "
        "if no ordering is intended.",
    ),
    # ---- Layer 1: mapping ------------------------------------------
    Rule(
        "RC110", "unmapped process", Severity.ERROR,
        "A process without a PE binding cannot execute; evaluation "
        "either crashes or silently drops its work.",
        "Map every process/task of the graph to a platform PE.",
    ),
    Rule(
        "RC111", "unknown process in mapping", Severity.WARNING,
        "The mapping binds a name the application does not define — "
        "usually a typo that leaves the intended process unmapped.",
        "Remove the stale entry or fix the process name.",
    ),
    Rule(
        "RC112", "unknown PE", Severity.ERROR,
        "The mapping targets a processing element the platform does "
        "not contain.",
        "Add the PE to the platform or retarget the mapping.",
    ),
    Rule(
        "RC113", "PE out of service", Severity.ERROR,
        "The mapping targets a PE currently marked unavailable "
        "(failed or powered off); work bound to it never runs.",
        "Repair the PE before simulating, or remap its processes.",
    ),
    Rule(
        "RC114", "ASIC capability mismatch", Severity.WARNING,
        "An ASIC is fixed-function hardware; hosting several distinct "
        "processes on one ASIC assumes a flexibility the component "
        "class does not have.",
        "Map one kernel per ASIC, or model the PE as an ASIP/DSP/GPP.",
    ),
    Rule(
        "RC115", "missing link", Severity.ERROR,
        "The mapping routes traffic over a src->dst link that is out "
        "of service (or absent) in the platform interconnect.",
        "Repair the link, or co-locate the communicating processes.",
    ),
    # ---- Layer 1: constraint feasibility ---------------------------
    Rule(
        "RC120", "PE over-utilized", Severity.ERROR,
        "Aggregate offered load above 1 on a PE means unbounded queue "
        "growth: the design cannot be feasible at any buffer size.",
        "Rebalance the mapping, raise the PE frequency, or lower the "
        "source rates.",
    ),
    Rule(
        "RC121", "deadline infeasible", Severity.ERROR,
        "The deadline is shorter than the best-case path latency "
        "(critical-path cycles on the fastest PE with free "
        "communication) — no mapping or scheduler can meet it.",
        "Relax the deadline, shorten the critical path, or add a "
        "faster PE.",
    ),
    Rule(
        "RC122", "bandwidth exceeded", Severity.ERROR,
        "Sustained communication demand above the interconnect "
        "bandwidth saturates the medium; latency grows without bound.",
        "Co-locate heavy communicators, widen the interconnect, or "
        "reduce token sizes.",
    ),
    # ---- Layer 1: unit & dimension sanity --------------------------
    Rule(
        "RC130", "idle power above active", Severity.WARNING,
        "Idle power above active power is almost always a unit slip "
        "(mW vs W); every DPM and DVFS conclusion drawn from such a "
        "model inverts.",
        "Check the datasheet units; active power must exceed idle.",
    ),
    Rule(
        "RC131", "implausible magnitude", Severity.WARNING,
        "A parameter orders of magnitude outside the physical range "
        "for embedded multimedia silicon (Hz, W, J/bit) indicates a "
        "unit-conversion error.",
        "Re-derive the value in SI base units (Hz, W, J).",
    ),
    Rule(
        "RC132", "DVFS model inconsistent", Severity.WARNING,
        "A PE whose nominal frequency lies outside its DVFS model's "
        "operating-point range cannot be scheduled consistently: "
        "scaling decisions refer to points the PE does not have.",
        "Make ProcessingElement.frequency one of the DVFS operating "
        "points.",
    ),
    # ---- Layer 1: scenario documents -------------------------------
    Rule(
        "RC140", "scenario schema violation", Severity.ERROR,
        "A file that does not conform to the repro.scenario/v1 schema "
        "cannot be loaded into model objects at all; every downstream "
        "check and simulation is moot until the document parses.",
        "Fix the value at the reported JSON path (repro scenario "
        "import FILE re-validates), or re-export the scenario with "
        "repro scenario export.",
    ),
    # ---- Layer 2: simulation lint ----------------------------------
    Rule(
        "SL200", "file does not parse", Severity.ERROR,
        "A syntax error makes every other guarantee void; the file "
        "cannot even be imported.",
        "Fix the syntax error.",
    ),
    Rule(
        "SL201", "unseeded or global RNG", Severity.ERROR,
        "Module-level RNG (random.*, numpy.random legacy calls, or "
        "default_rng() without a seed) draws from hidden global state: "
        "runs become irreproducible and experiments stop being "
        "bit-exact.",
        "Draw from a seeded stream: repro.utils.RandomStreams, "
        "spawn_rng(seed, name), or np.random.default_rng(seed).",
    ),
    Rule(
        "SL202", "wall-clock call in simulation code", Severity.ERROR,
        "time.time()/datetime.now()/time.sleep() read or block on the "
        "host clock; simulated time must come only from the DES "
        "environment (time.perf_counter is allowed for measuring "
        "wall-clock cost of the run itself).",
        "Use env.now for simulated time and env.timeout for delays; "
        "use time.perf_counter for wall-time measurement.",
    ),
    Rule(
        "SL203", "kernel event not yielded", Severity.ERROR,
        "Inside a generator process, a bare env.timeout(...)/"
        "env.event()/.get()/.put()/.request() creates an event that "
        "is never waited on: "
        "the process races ahead and the event leaks.",
        "Yield every kernel event: `yield env.timeout(d)`, "
        "`tok = yield queue.get()`.",
    ),
    Rule(
        "SL204", "mutable default argument", Severity.WARNING,
        "A list/dict/set default is shared across calls; in model "
        "constructors it silently couples every instance built with "
        "the default.",
        "Default to None and create the container in the body, or use "
        "dataclasses.field(default_factory=...).",
    ),
    Rule(
        "SL205", "float equality against simulated time",
        Severity.WARNING,
        "Simulated clocks accumulate floating-point error; `t == "
        "env.now` comparisons silently never (or spuriously) fire.",
        "Compare with a tolerance (math.isclose) or use ordered "
        "comparisons (<=, >=).",
    ),
    Rule(
        "SL206", "bare multiprocessing outside repro.parallel",
        Severity.WARNING,
        "Ad-hoc process pools bypass the replication engine's "
        "contracts: per-replica seed derivation, kernel-counter "
        "snapshot merging, and the deterministic completion-order-"
        "independent merge all live in repro.parallel; a bare pool "
        "silently loses cross-process counters and reproducibility.",
        "Fan work out with repro.parallel.run_replicated instead of "
        "importing multiprocessing / concurrent.futures directly.",
    ),
    Rule(
        "SL207", "silently swallowed exception",
        Severity.WARNING,
        "An `except Exception: pass` masks the very faults the "
        "supervision layer exists to surface: a fault injected by the "
        "chaos harness, or a real failure, vanishes without a trace "
        "and the sweep reports healthy results it never computed.",
        "Catch the narrowest exception you can actually recover "
        "from, and handle it visibly: record a metric, return a "
        "degraded result, or re-raise.",
    ),
    # ---- Layer 3: flow analysis (simflow) ---------------------------
    Rule(
        "SF301", "event overwritten before yield", Severity.ERROR,
        "Rebinding a variable holding an un-yielded kernel event "
        "drops the first event on the floor: whatever it modeled "
        "(a delay, a pending request) silently never happens, and "
        "on some control paths the process skips simulated work.",
        "Yield each event before creating the next, or collect "
        "events and wait with env.any_of/env.all_of.",
    ),
    Rule(
        "SF302", "yield of non-event", Severity.ERROR,
        "The kernel only accepts Event objects from process "
        "generators; yielding a constant raises TypeError the first "
        "time the process runs — but only on the path that reaches "
        "the yield, so it can hide until a rare branch fires.",
        "Yield kernel events only: `yield env.timeout(delay)`.",
    ),
    Rule(
        "SF303", "resource leak on exception or early return",
        Severity.ERROR,
        "A Resource.request() grant that is not released on every "
        "path — including interrupts raised at a yield and early "
        "returns — shrinks the resource's capacity for the rest of "
        "the run; under load the model deadlocks or serializes for a "
        "reason that does not exist in the system being studied.",
        "Acquire with `with res.request() as req:` or release in a "
        "try/finally.",
    ),
    Rule(
        "SF304", "conflicting resource acquisition order",
        Severity.WARNING,
        "Process functions that acquire the same resources in "
        "different orders can deadlock when their requests "
        "interleave: each holds what the other needs.  The cycle is "
        "over the project-wide acquisition graph, so no single "
        "function shows the defect.",
        "Pick one global acquisition order for the cycle's "
        "resources, or merge the acquisitions into one request.",
    ),
    Rule(
        "SF306", "infinite loop without yield", Severity.ERROR,
        "A `while True` (or time-conditioned) loop with no yield "
        "never returns control to the scheduler: simulated time "
        "freezes and the run spins forever at 100% CPU, "
        "indistinguishable from a hang.",
        "Yield a kernel event inside the loop (`yield "
        "env.timeout(...)`) so time can advance.",
    ),
    Rule(
        "SF307", "nondeterminism reaches the schedule",
        Severity.ERROR,
        "A value derived from the wall clock, an unseeded RNG, "
        "id()/hash() addresses, OS entropy, or set iteration order "
        "flowing into a timeout, schedule, or seed argument makes "
        "event ordering depend on the host: the run stops being a "
        "pure function of the experiment seed, and replications "
        "silently diverge.",
        "Derive delays and seeds only from seeded streams "
        "(spawn_rng, RandomStreams) and simulated time (env.now).",
    ),
])


def rule(rule_id: str) -> Rule:
    """Look up a catalog rule by id."""
    try:
        return RULES[rule_id]
    except KeyError:
        raise KeyError(f"unknown rule id {rule_id!r}") from None


def make_diagnostic(
    rule_id: str,
    message: str,
    subject: str,
    line: int | None = None,
    severity: Severity | None = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic` with catalog defaults filled in."""
    entry = rule(rule_id)
    return Diagnostic(
        rule=rule_id,
        severity=entry.severity if severity is None else severity,
        message=message,
        subject=subject,
        line=line,
        fix_hint=entry.fix_hint,
    )


def max_severity(diagnostics: Iterable[Diagnostic]) -> Severity | None:
    """Highest severity present, or ``None`` for a clean result."""
    severities = [d.severity for d in diagnostics]
    return max(severities) if severities else None


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """True when any diagnostic is error-severity."""
    return any(d.severity >= Severity.ERROR for d in diagnostics)


def _sort_key(diag: Diagnostic) -> tuple:
    return (diag.subject, diag.line if diag.line is not None else -1,
            diag.rule, diag.message)


def diagnostics_to_dict(diagnostics: Iterable[Diagnostic]) -> dict:
    """Stable JSON document for a set of findings.

    Findings are sorted by (subject, line, rule, message) so two runs
    over the same tree serialize identically — the property the golden
    test and the CI artifact diffing rely on.
    """
    ordered = sorted(diagnostics, key=_sort_key)
    counts = {"error": 0, "warning": 0, "info": 0}
    for diag in ordered:
        counts[str(diag.severity)] += 1
    return {
        "version": 1,
        "counts": counts,
        "diagnostics": [d.to_dict() for d in ordered],
    }


def diagnostics_to_json(
    diagnostics: Iterable[Diagnostic], indent: int | None = 2
) -> str:
    """Serialize findings to deterministic JSON text."""
    return json.dumps(diagnostics_to_dict(diagnostics), indent=indent,
                      sort_keys=True)
