"""Layer 1: static verification of application/architecture models.

Pure functions over :mod:`repro.core` objects that detect ill-formed
designs *before* anything is simulated: structural errors in process
and task graphs, broken mappings, constraint infeasibility that no
scheduler can repair, and unit/dimension slips in power parameters.

Each function returns a list of
:class:`~repro.check.diagnostics.Diagnostic` and never mutates its
arguments; callers decide whether findings are fatal (the experiment
pre-flight hook raises on error severity, the CLI turns them into an
exit code).
"""

from __future__ import annotations

from repro.check.diagnostics import Diagnostic, make_diagnostic
from repro.core.application import ApplicationGraph, TaskGraph
from repro.core.architecture import (
    PEKind,
    Platform,
    ProcessingElement,
)
from repro.core.mapping import Mapping
from repro.core.qos import QoSSpec

__all__ = [
    "verify_application",
    "verify_task_graph",
    "verify_platform",
    "verify_mapping",
    "verify_design",
    "verify_model",
]

#: Physical plausibility bounds for RC131 (embedded multimedia silicon).
_FREQUENCY_RANGE = (1e4, 1e12)       # 10 kHz .. 1 THz
_MAX_ACTIVE_POWER = 1e3              # 1 kW
_MAX_ENERGY_PER_BIT = 1e-6           # 1 uJ/bit (typical values are pJ)
_RELATIVE_RATE_TOLERANCE = 1e-6


def _subject(kind: str, name: str, element: str = "") -> str:
    base = f"{kind}:{name}"
    return f"{base}/{element}" if element else base


# ----------------------------------------------------------------------
# Application process networks
# ----------------------------------------------------------------------
def verify_application(app: ApplicationGraph) -> list[Diagnostic]:
    """Structural checks on a process network (RC101..RC106)."""
    diags: list[Diagnostic] = []
    name = app.name

    # RC103 first: reachability below assumes the usual acyclic case.
    cycle = app.find_cycle()
    if cycle:
        loop = " -> ".join(cycle + cycle[:1])
        diags.append(make_diagnostic(
            "RC103",
            f"channel cycle {loop} has no initial tokens and will "
            f"deadlock",
            _subject("app", name),
        ))

    rated = [p.name for p in app.sources() if p.rate_hz is not None]
    reachable: set[str] = set(rated)
    for source in rated:
        reachable |= app.descendants(source)
    for process in app.processes:
        if process.name not in reachable:
            diags.append(make_diagnostic(
                "RC101",
                f"process {process.name!r} is not reachable from any "
                f"rated source and will never activate",
                _subject("app", name, f"process:{process.name}"),
            ))

    n_parts = app.fragment_count()
    if n_parts > 1:
        diags.append(make_diagnostic(
            "RC102",
            f"application graph splits into {n_parts} disconnected "
            f"fragments",
            _subject("app", name),
        ))

    for process in app.sources():
        if process.rate_hz is None and app.successors(process.name):
            diags.append(make_diagnostic(
                "RC104",
                f"source process {process.name!r} has no rate_hz",
                _subject("app", name, f"process:{process.name}"),
            ))
    for process in app.processes:
        if process.rate_hz is not None and app.predecessors(
                process.name):
            diags.append(make_diagnostic(
                "RC105",
                f"process {process.name!r} has rate_hz="
                f"{process.rate_hz:g} but also input channels; the "
                f"rate is ignored",
                _subject("app", name, f"process:{process.name}"),
            ))

    if not cycle:
        rates = app.activation_rates()
        for process in app.processes:
            preds = app.predecessors(process.name)
            if len(preds) < 2:
                continue
            in_rates = {p: rates[p] for p in preds}
            lo, hi = min(in_rates.values()), max(in_rates.values())
            if hi > 0 and (hi - lo) / hi > _RELATIVE_RATE_TOLERANCE:
                detail = ", ".join(
                    f"{p}={r:g}/s" for p, r in sorted(in_rates.items())
                )
                diags.append(make_diagnostic(
                    "RC106",
                    f"join {process.name!r} consumes inputs at "
                    f"mismatched rates ({detail})",
                    _subject("app", name, f"process:{process.name}"),
                ))
    return diags


# ----------------------------------------------------------------------
# Task graphs
# ----------------------------------------------------------------------
def verify_task_graph(tg: TaskGraph) -> list[Diagnostic]:
    """Structural checks on a task DAG (RC102, RC107)."""
    diags: list[Diagnostic] = []
    n_parts = tg.fragment_count()
    if n_parts > 1:
        diags.append(make_diagnostic(
            "RC102",
            f"task graph splits into {n_parts} disconnected fragments",
            _subject("taskgraph", tg.name),
        ))
    for dep in tg.dependencies:
        if dep.bits == 0:
            diags.append(make_diagnostic(
                "RC107",
                f"dependency {dep.src}->{dep.dst} carries zero bits "
                f"but still serializes the two tasks",
                _subject("taskgraph", tg.name,
                         f"dep:{dep.src}->{dep.dst}"),
            ))
    return diags


# ----------------------------------------------------------------------
# Platforms (unit/dimension sanity)
# ----------------------------------------------------------------------
def verify_platform(platform: Platform) -> list[Diagnostic]:
    """Power/energy parameter sanity on a platform (RC130..RC132)."""
    diags: list[Diagnostic] = []
    name = platform.name
    for pe in platform.pes:
        diags.extend(_verify_pe(name, pe))
    inter = platform.interconnect
    energy_per_bit = getattr(inter, "energy_per_bit", None)
    if (energy_per_bit is not None
            and energy_per_bit > _MAX_ENERGY_PER_BIT):
        diags.append(make_diagnostic(
            "RC131",
            f"interconnect energy_per_bit={energy_per_bit:g} J/bit is "
            f"implausibly high (typical values are pJ/bit)",
            _subject("platform", name, "interconnect"),
        ))
    return diags


def _verify_pe(platform_name: str,
               pe: ProcessingElement) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    where = _subject("platform", platform_name, f"pe:{pe.name}")
    active = pe.active_power if pe.active_power is not None else 0.0
    if pe.idle_power > active > 0:
        diags.append(make_diagnostic(
            "RC130",
            f"PE {pe.name!r} idle power {pe.idle_power:g} W exceeds "
            f"active power {active:g} W",
            where,
        ))
    lo, hi = _FREQUENCY_RANGE
    if not lo <= pe.frequency <= hi:
        diags.append(make_diagnostic(
            "RC131",
            f"PE {pe.name!r} frequency {pe.frequency:g} Hz lies "
            f"outside the plausible range [{lo:g}, {hi:g}]",
            where,
        ))
    if active > _MAX_ACTIVE_POWER:
        diags.append(make_diagnostic(
            "RC131",
            f"PE {pe.name!r} active power {active:g} W is implausibly "
            f"high for embedded silicon",
            where,
        ))
    if pe.dvfs is not None:
        freqs = [point.frequency for point in pe.dvfs.points]
        f_lo, f_hi = min(freqs), max(freqs)
        if not f_lo <= pe.frequency <= f_hi:
            diags.append(make_diagnostic(
                "RC132",
                f"PE {pe.name!r} nominal frequency {pe.frequency:g} "
                f"Hz is outside its DVFS range [{f_lo:g}, {f_hi:g}]",
                where,
            ))
    return diags


# ----------------------------------------------------------------------
# Mappings
# ----------------------------------------------------------------------
def verify_mapping(
    app: ApplicationGraph | TaskGraph,
    platform: Platform,
    mapping: Mapping,
) -> list[Diagnostic]:
    """Binding checks for one mapping (RC110..RC115)."""
    diags: list[Diagnostic] = []
    if isinstance(app, ApplicationGraph):
        expected = {p.name for p in app.processes}
        model_kind, model_name = "app", app.name
    else:
        expected = {t.name for t in app.tasks}
        model_kind, model_name = "taskgraph", app.name
    assignment = mapping.assignment
    where = _subject(model_kind, model_name, "mapping")

    for missing in sorted(expected - set(assignment)):
        diags.append(make_diagnostic(
            "RC110", f"process {missing!r} has no PE binding", where,
        ))
    for unknown in sorted(set(assignment) - expected):
        diags.append(make_diagnostic(
            "RC111",
            f"mapping binds {unknown!r}, which the model does not "
            f"define",
            where,
        ))
    for process, pe_name in assignment.items():
        if pe_name not in platform:
            diags.append(make_diagnostic(
                "RC112",
                f"process {process!r} is mapped to unknown PE "
                f"{pe_name!r}",
                where,
            ))
        elif not platform.pe(pe_name).available:
            diags.append(make_diagnostic(
                "RC113",
                f"process {process!r} is mapped to out-of-service PE "
                f"{pe_name!r}",
                where,
            ))

    for pe in platform.pes:
        if pe.kind is not PEKind.ASIC:
            continue
        hosted = [p for p in mapping.processes_on(pe.name)
                  if p in expected]
        if len(hosted) > 1:
            diags.append(make_diagnostic(
                "RC114",
                f"ASIC {pe.name!r} hosts {len(hosted)} processes "
                f"({', '.join(sorted(hosted))})",
                where,
            ))

    # RC115 only makes sense when every endpoint resolves.
    if not any(d.rule in ("RC110", "RC112") for d in diags):
        seen: set[tuple[str, str]] = set()
        for src_pe, dst_pe, _bits in mapping.remote_edges(app):
            link = (src_pe, dst_pe)
            if link in seen:
                continue
            seen.add(link)
            if not platform.interconnect.link_available(src_pe, dst_pe):
                diags.append(make_diagnostic(
                    "RC115",
                    f"mapping routes traffic over out-of-service link "
                    f"{src_pe}->{dst_pe}",
                    where,
                ))
    return diags


# ----------------------------------------------------------------------
# Feasibility (needs graph + platform, optionally mapping/QoS)
# ----------------------------------------------------------------------
def _utilization_diags(
    app: ApplicationGraph | TaskGraph,
    platform: Platform,
    mapping: Mapping,
) -> list[Diagnostic]:
    """RC120: aggregate offered load per PE must stay below 1."""
    utils: dict[str, float] = {pe.name: 0.0 for pe in platform.pes}
    if isinstance(app, ApplicationGraph):
        rates = app.activation_rates()
        demands = [
            (p.name, rates[p.name] * p.cycles_mean)
            for p in app.processes
        ]
        kind, name = "app", app.name
    else:
        if not app.period:
            return []
        demands = [(t.name, t.cycles / app.period) for t in app.tasks]
        kind, name = "taskgraph", app.name
    for process, cycles_per_second in demands:
        pe_name = mapping.assignment.get(process)
        if pe_name is None or pe_name not in platform:
            continue
        utils[pe_name] += cycles_per_second / platform.pe(
            pe_name).frequency
    diags = []
    for pe_name, util in sorted(utils.items()):
        if util > 1.0:
            diags.append(make_diagnostic(
                "RC120",
                f"PE {pe_name!r} offered load {util:.3f} exceeds 1",
                _subject(kind, name, f"mapping/pe:{pe_name}"),
            ))
    return diags


def _bandwidth_diags(
    app: ApplicationGraph | TaskGraph,
    platform: Platform,
    mapping: Mapping,
) -> list[Diagnostic]:
    """RC122: sustained traffic must fit the interconnect bandwidth."""
    inter = platform.interconnect
    bandwidth = getattr(inter, "bandwidth", None)
    if bandwidth is None:
        return []
    if isinstance(app, ApplicationGraph):
        rates = app.activation_rates()
        edge_bps = [
            (c.src, c.dst, rates[c.src] * c.bits_per_token)
            for c in app.channels
        ]
        kind, name = "app", app.name
    else:
        if not app.period:
            return []
        edge_bps = [
            (d.src, d.dst, d.bits / app.period)
            for d in app.dependencies
        ]
        kind, name = "taskgraph", app.name

    per_link: dict[tuple[str, str], float] = {}
    for src, dst, bps in edge_bps:
        src_pe = mapping.assignment.get(src)
        dst_pe = mapping.assignment.get(dst)
        if (src_pe is None or dst_pe is None or src_pe == dst_pe
                or bps <= 0):
            continue
        key = ("<shared>", "<shared>") if inter.is_shared() else (
            src_pe, dst_pe)
        per_link[key] = per_link.get(key, 0.0) + bps

    diags = []
    for (src_pe, dst_pe), bps in sorted(per_link.items()):
        if bps > bandwidth:
            medium = ("shared interconnect" if src_pe == "<shared>"
                      else f"link {src_pe}->{dst_pe}")
            diags.append(make_diagnostic(
                "RC122",
                f"{medium} carries {bps:g} bit/s, above its "
                f"{bandwidth:g} bit/s capacity",
                _subject(kind, name, "mapping"),
            ))
    return diags


def _fastest_frequency(platform: Platform) -> float:
    return max((pe.frequency for pe in platform.pes), default=0.0)


def _deadline_diags_taskgraph(
    tg: TaskGraph, platform: Platform
) -> list[Diagnostic]:
    """RC121 for task graphs: critical-path cycles into each task,
    executed on the fastest PE with free communication, is a hard
    lower bound on its completion time."""
    f_max = _fastest_frequency(platform)
    if f_max <= 0:
        return []
    longest: dict[str, float] = {}
    diags = []
    for name in tg.topological_order():
        incoming = [longest[p] for p in tg.predecessors(name)]
        task = tg.task(name)
        longest[name] = task.cycles + (max(incoming) if incoming
                                       else 0.0)
        if task.deadline is None:
            continue
        best_case = longest[name] / f_max
        if best_case > task.deadline:
            diags.append(make_diagnostic(
                "RC121",
                f"task {name!r} deadline {task.deadline:g} s is below "
                f"its best-case completion {best_case:g} s "
                f"({longest[name]:g} cycles at {f_max:g} Hz)",
                _subject("taskgraph", tg.name, f"task:{name}"),
            ))
    return diags


def _deadline_diags_application(
    app: ApplicationGraph, platform: Platform, qos: QoSSpec
) -> list[Diagnostic]:
    """RC121 for process networks: the QoS latency bound must exceed
    the best-case critical path (joins wait for all inputs)."""
    if qos.max_latency is None:
        return []
    f_max = _fastest_frequency(platform)
    if f_max <= 0:
        return []
    worst_sink = app.critical_path_cycles()
    best_case = worst_sink / f_max
    if best_case > qos.max_latency:
        return [make_diagnostic(
            "RC121",
            f"QoS max_latency {qos.max_latency:g} s is below the "
            f"best-case end-to-end latency {best_case:g} s "
            f"({worst_sink:g} cycles at {f_max:g} Hz)",
            _subject("app", app.name, "qos"),
        )]
    return []


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def verify_design(
    application: ApplicationGraph | None = None,
    task_graph: TaskGraph | None = None,
    platform: Platform | None = None,
    mapping: Mapping | None = None,
    qos: QoSSpec | None = None,
) -> list[Diagnostic]:
    """Verify whatever slice of a design is provided.

    Single objects get their structural/sanity checks; combinations
    unlock the cross-cutting rules (mapping validity needs graph +
    platform + mapping, feasibility additionally uses QoS bounds and
    deadlines).
    """
    diags: list[Diagnostic] = []
    graph: ApplicationGraph | TaskGraph | None = None
    if application is not None:
        diags.extend(verify_application(application))
        graph = application
    if task_graph is not None:
        diags.extend(verify_task_graph(task_graph))
        graph = task_graph if graph is None else graph
    if platform is not None:
        diags.extend(verify_platform(platform))
    if graph is not None and platform is not None:
        # A cyclic process network has no steady-state rates and no
        # critical path, so the rules built on them (RC120-RC122)
        # stay silent; RC103 has already reported the cycle.
        acyclic = application is None or application.is_acyclic()
        if mapping is not None:
            diags.extend(verify_mapping(graph, platform, mapping))
            if acyclic:
                diags.extend(_utilization_diags(graph, platform,
                                                mapping))
                diags.extend(_bandwidth_diags(graph, platform,
                                              mapping))
        if task_graph is not None:
            diags.extend(_deadline_diags_taskgraph(task_graph,
                                                   platform))
        if application is not None and qos is not None and acyclic:
            diags.extend(_deadline_diags_application(
                application, platform, qos))
    return diags


def verify_model(obj: object) -> list[Diagnostic]:
    """Dispatch on a single model object (or a kwargs dict bundle).

    Accepts an :class:`ApplicationGraph`, :class:`TaskGraph` or
    :class:`Platform` directly, or a dict of :func:`verify_design`
    keyword arguments for cross-object checks.
    """
    if isinstance(obj, ApplicationGraph):
        return verify_application(obj)
    if isinstance(obj, TaskGraph):
        return verify_task_graph(obj)
    if isinstance(obj, Platform):
        return verify_platform(obj)
    if isinstance(obj, dict):
        return verify_design(**obj)
    raise TypeError(
        f"cannot verify object of type {type(obj).__name__}; expected "
        f"ApplicationGraph, TaskGraph, Platform or a verify_design "
        f"kwargs dict"
    )
