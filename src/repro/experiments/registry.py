"""Experiment registry: one uniform ``run(id)`` for every bench.

Experiments register themselves with :func:`register`; the CLI and the
pytest benchmarks both call :func:`run`, so there is exactly one code
path producing each paper table.  Each run gets a fresh
:class:`~repro.obs.metrics.MetricRegistry` (and, on request, a
:class:`~repro.obs.trace.Tracer`) installed as the ambient
instrumentation, so every :class:`~repro.des.Environment` the
experiment creates reports into the run's
:class:`~repro.obs.report.RunReport` without explicit plumbing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.experiments.result import ExperimentResult
from repro.obs.context import active_tracer, instrument
from repro.obs.metrics import MetricRegistry
from repro.obs.report import RunReport
from repro.obs.slo import SLOWatcher, as_slo_specs
from repro.obs.timeseries import Probe, as_probe_spec
from repro.obs.trace import Tracer
from repro.utils.tables import Table

__all__ = ["Experiment", "RunContext", "register", "get", "ids",
           "preflight", "run", "scenarios_of", "SCENARIO_ID_PREFIX"]

#: Prefix of dynamic experiment ids: ``scenario:<path>`` runs the
#: scenario document at ``<path>`` without prior registration.
SCENARIO_ID_PREFIX = "scenario:"


@dataclass
class RunContext:
    """What an experiment runner sees: its seed and output channels.

    Runners derive every RNG seed from :attr:`seed` (``ctx.seed + k``
    for the k-th stream), build display tables via :meth:`table`, and
    record headline KPIs via :meth:`record`; their return value becomes
    ``ExperimentResult.raw``.  When the run was given a scenario
    document (``run(..., scenario=...)`` or the CLI's ``--scenario``),
    the loaded :class:`repro.scenario.Scenario` is on
    :attr:`scenario` for runners that honor design-point overrides.
    """

    seed: int
    metrics: MetricRegistry
    tracer: Tracer | None = None
    scenario: Any = None
    tables: list[Table] = field(default_factory=list)
    kpis: dict[str, float] = field(default_factory=dict)

    def table(self, columns: Sequence[str], title: str = "") -> Table:
        """Create a :class:`Table` that ships with the result."""
        out = Table(columns, title=title)
        self.tables.append(out)
        return out

    def record(self, name: str, value: float) -> None:
        """Record one scalar headline metric."""
        self.kpis[name] = float(value)


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: id, the paper claim, and its runner.

    ``scenario`` is the optional pre-flight hook: a zero-argument
    callable returning the experiment's design points in declarative
    form — ``repro.scenario/v1`` documents (dicts), paths to scenario
    files, or :class:`repro.scenario.Scenario` objects, singly or as a
    list.  When present, :func:`run` schema-validates and RC-verifies
    the *documents* before simulating anything, so what gets checked
    is exactly what a scenario file would carry.
    """

    id: str
    claim: str
    runner: Callable[[RunContext], Any]
    scenario: Callable[[], Any] | None = None


_REGISTRY: dict[str, Experiment] = {}


def register(exp_id: str, claim: str,
             scenario: Callable[[], Any] | None = None):
    """Decorator registering ``runner`` under ``exp_id``.

    ``scenario`` optionally supplies the experiment's design points as
    declarative documents for static verification (see
    :class:`Experiment`).
    """

    def decorator(runner: Callable[[RunContext], Any]):
        key = exp_id.lower()
        if key in _REGISTRY:
            raise ValueError(f"experiment {exp_id!r} already registered")
        _REGISTRY[key] = Experiment(id=key, claim=claim, runner=runner,
                                    scenario=scenario)
        return runner

    return decorator


def _ensure_defs() -> None:
    # Experiments register on import of the definitions module.
    from repro.experiments import defs  # noqa: F401


def _coerce_scenario(item: Any):
    """One scenario-hook item -> a loaded ``Scenario`` object.

    Accepts a document dict, a path to a scenario file, or an
    already-built :class:`repro.scenario.Scenario`.
    """
    from repro import scenario as scn

    if isinstance(item, scn.Scenario):
        return item
    if isinstance(item, dict):
        return scn.Scenario.from_document(item)
    if isinstance(item, (str, Path)):
        return scn.load(item)
    raise TypeError(
        f"scenario hook must yield documents, paths or Scenario "
        f"objects, got {type(item).__name__}"
    )


def scenarios_of(exp_id: str) -> list:
    """The experiment's declared design points, as loaded
    ``Scenario`` objects (empty for experiments without a hook)."""
    hook = get(exp_id).scenario
    if hook is None:
        return []
    result = hook()
    items = result if isinstance(result, (list, tuple)) else [result]
    return [_coerce_scenario(item) for item in items]


def _scenario_experiment(path_text: str) -> Experiment:
    """Synthesize the dynamic experiment for ``scenario:<path>``.

    Not cached in the registry: the id itself carries everything
    needed to rebuild it, which is what lets replication workers
    re-resolve the experiment from the bare id string in a fresh
    process.
    """
    path = Path(path_text)

    def _runner(ctx: RunContext):
        from repro.scenario import evaluate_scenario, load

        scenario = ctx.scenario
        if scenario is None:
            scenario = load(path)
        return evaluate_scenario(ctx, scenario)

    return Experiment(
        id=f"{SCENARIO_ID_PREFIX}{path_text}",
        claim=f"declarative scenario {path.name}",
        runner=_runner,
        scenario=lambda: [path],
    )


def get(exp_id: str) -> Experiment:
    """Look up an experiment by (case-insensitive) id.

    Ids starting with ``scenario:`` are dynamic: the remainder is a
    path to a ``repro.scenario/v1`` file (case-sensitive, since it
    names a file) and the returned experiment evaluates that design
    point.
    """
    if exp_id.startswith(SCENARIO_ID_PREFIX):
        return _scenario_experiment(exp_id[len(SCENARIO_ID_PREFIX):])
    _ensure_defs()
    try:
        return _REGISTRY[exp_id.lower()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known ids: "
            f"{', '.join(ids())}"
        ) from None


def ids() -> list[str]:
    """All registered experiment ids, in registration order."""
    _ensure_defs()
    return list(_REGISTRY)


def preflight(exp_id: str) -> list:
    """Statically verify an experiment's declared design points.

    The scenario hook's documents are schema-validated, built, and
    run through the Layer-1 RC model verifier; each
    :class:`~repro.check.Diagnostic` subject carries the experiment id
    and the JSON path of the offending element
    (``experiment:e3/<name>#$.scenario.task_graph.nodes[2]``).
    Experiments without a hook verify vacuously (empty list).
    """
    return _verify(get(exp_id).id, scenarios_of(exp_id))


def _verify(exp_id: str, scenarios: list) -> list:
    """Verify ``scenarios`` and prefix every diagnostic subject with
    ``experiment:<exp_id>/``."""
    from repro import scenario as scn

    diagnostics = []
    for scenario in scenarios:
        for diag in scn.verify(scenario):
            diag.subject = f"experiment:{exp_id}/{diag.subject}"
            diagnostics.append(diag)
    return diagnostics


def run(
    exp_id: str,
    seed: int | None = None,
    *,
    trace: bool | Tracer = False,
    verify: bool = True,
    scenario: Any = None,
    probe: Any = None,
    slo: Any = None,
) -> ExperimentResult:
    """Run one experiment and return its :class:`ExperimentResult`.

    Parameters
    ----------
    exp_id:
        Experiment id (``f1``, ``e3``, ``r1``, ...; case-insensitive).
    seed:
        Base seed; ``None`` means the default (0), which reproduces
        the published tables bit-for-bit.
    trace:
        Record a kernel event trace.  ``True`` creates a fresh
        unbounded :class:`~repro.obs.trace.Tracer`; passing a tracer
        instance uses it instead (e.g. a capped ``Tracer(max_events=)``
        or a profiler's attributing tracer).  ``False`` (the default)
        inherits the ambient tracer when one is installed via
        :func:`repro.obs.instrument` — so profiling a whole
        ``experiments.run`` call attributes its processes — and
        records nothing otherwise.  Tracing is observational only: it
        never changes simulation results.
    verify:
        Pre-flight the experiment's declared design points (or the
        ``scenario`` override) through the Layer-1 static verifier
        (:mod:`repro.check`); error-severity findings raise
        :class:`~repro.check.ModelVerificationError` before any
        simulation starts.  ``False`` skips the check.
    scenario:
        Optional design-point override: a path to a
        ``repro.scenario/v1`` file, a document dict, or a loaded
        :class:`repro.scenario.Scenario`.  It is verified in place of
        the registered hook and exposed to the runner as
        ``ctx.scenario``.
    probe:
        Sample KPI time series at a sim-time interval.  ``True`` uses
        the default :class:`~repro.obs.timeseries.ProbeSpec`; a number
        is an interval in simulated seconds; a ``ProbeSpec`` or live
        :class:`~repro.obs.timeseries.Probe` is used as given.  The
        probe is purely observational (it schedules nothing), so the
        non-``probe_*`` parts of the result are unchanged by it.
    slo:
        Service-level objectives to evaluate: spec strings for
        :meth:`~repro.obs.slo.SLOSpec.parse` and/or
        :class:`~repro.obs.slo.SLOSpec` objects.  In-flight breaches
        (when a probe is on) and the final verdict land in
        ``report.slo``.
    """
    experiment = get(exp_id)
    loaded_scenario = (None if scenario is None
                       else _coerce_scenario(scenario))
    if verify and (loaded_scenario is not None
                   or experiment.scenario is not None):
        from repro.check import ModelVerificationError, has_errors

        if loaded_scenario is not None:
            diagnostics = _verify(experiment.id, [loaded_scenario])
        else:
            diagnostics = preflight(exp_id)
        if has_errors(diagnostics):
            raise ModelVerificationError(diagnostics)
    base_seed = 0 if seed is None else int(seed)
    registry = MetricRegistry()
    if isinstance(trace, Tracer):
        tracer = trace
    elif trace:
        tracer = Tracer()
    else:
        # No trace requested: inherit any ambient tracer (e.g. a
        # profiler's) instead of shadowing it — the same semantics as
        # Environment picking up the ambient default.
        tracer = active_tracer()
    if isinstance(probe, Probe):
        probe_obj: Probe | None = probe
    else:
        probe_spec = as_probe_spec(probe)
        probe_obj = (Probe(registry, probe_spec)
                     if probe_spec is not None else None)
    slo_specs = as_slo_specs(slo)
    watcher = (SLOWatcher(registry, list(slo_specs))
               if slo_specs else None)
    if probe_obj is not None and watcher is not None:
        probe_obj.watcher = watcher
    ctx = RunContext(seed=base_seed, metrics=registry, tracer=tracer,
                     scenario=loaded_scenario)
    start = time.perf_counter()
    with instrument(tracer=tracer, metrics=registry, probe=probe_obj):
        raw = experiment.runner(ctx)
    wall = time.perf_counter() - start
    if watcher is not None:
        watcher.finalize()
    report = RunReport.from_run(
        experiment.id,
        seed=base_seed,
        wall_seconds=wall,
        metrics=ctx.kpis,
        registry=registry,
        tracer=tracer,
        slo=watcher.summary() if watcher is not None else None,
    )
    return ExperimentResult(
        id=experiment.id,
        claim=experiment.claim,
        tables=ctx.tables,
        metrics=dict(ctx.kpis),
        report=report,
        raw=raw,
        tracer=tracer,
        registry=registry,
    )
