"""Seeded generative scenario fuzzing.

:class:`ScenarioGenerator` samples random — but valid-by-construction —
(application, platform, mapping) design points and pre-flights every
sample with the RC1xx model verifier (:mod:`repro.check`), which acts
as the generator's validity oracle: a sample the verifier rejects is a
*counterexample* — either a generator bug or a verifier gap — and is
shrunk by :func:`minimize` to the smallest sub-scenario that still
trips the same rule before being saved as a corpus fixture.

Determinism contract: sample ``i`` depends **only** on
``(master seed, i)`` — never on other samples, sampling order, or wall
clock — so ``generate(seed=s)`` is byte-identical across runs (the
corpus determinism gate in CI).

The ``mutate`` knob deliberately injects one model defect per sampled
scenario with the given probability (default 0: the corpus is clean).
It exists to exercise the oracle end-to-end — fuzzing the *checker* as
well as the models — and to give the minimizer real work in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.application import (
    ApplicationGraph,
    ChannelSpec,
    ProcessNode,
    Task,
    TaskGraph,
    Dependency,
)
from repro.core.architecture import (
    BusInterconnect,
    PEKind,
    Platform,
    PointToPointInterconnect,
    ProcessingElement,
)
from repro.core.mapping import Mapping
from repro.core.qos import QoSSpec
from repro.scenario.codec import Scenario, save, verify
from repro.utils import _graphs
from repro.utils.rng import derive_seed

__all__ = [
    "GeneratedScenario",
    "CorpusReport",
    "ScenarioGenerator",
    "minimize",
    "generate_corpus",
]

#: Source activation rates the sampler draws from (frames/s-ish).
_RATES = (5.0, 10.0, 15.0, 24.0, 25.0, 30.0, 50.0, 60.0)
#: PE clock frequencies (Hz).
_FREQUENCIES = (100e6, 200e6, 400e6, 600e6, 800e6)
#: Interconnect bandwidths (bit/s).
_BANDWIDTHS = (1e8, 5e8, 1e9)
#: Utilization/bandwidth headroom the sampler guarantees even under
#: the worst-case all-on-one-PE assignment.
_HEADROOM = 0.8


@dataclass
class GeneratedScenario:
    """One sample plus its oracle verdict."""

    index: int
    scenario: Scenario
    #: RC1xx diagnostics; empty means the sample is clean.
    diagnostics: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.diagnostics


@dataclass
class CorpusReport:
    """What :func:`generate_corpus` produced."""

    seed: int
    count: int
    out_dir: Path
    clean_paths: list[Path] = field(default_factory=list)
    counterexample_paths: list[Path] = field(default_factory=list)

    @property
    def clean_fraction(self) -> float:
        if not self.count:
            return 1.0
        return len(self.clean_paths) / self.count

    def summary(self) -> str:
        return (
            f"corpus seed={self.seed}: {len(self.clean_paths)}/"
            f"{self.count} clean "
            f"({self.clean_fraction:.0%}), "
            f"{len(self.counterexample_paths)} counterexample(s) "
            f"-> {self.out_dir}")


class ScenarioGenerator:
    """Sample valid design-point scenarios from a master seed.

    Parameters
    ----------
    seed:
        Master seed; sample ``i`` derives its RNG from
        ``derive_seed(seed, f"scenario/{i}")`` and nothing else.
    app_fraction:
        Fraction of samples that are application-graph triples (the
        rest are task-graph triples).
    mutate:
        Probability of deliberately injecting one defect per sample
        (see module docstring).  Default 0.
    """

    def __init__(self, seed: int = 0, app_fraction: float = 0.7,
                 mutate: float = 0.0):
        if not 0.0 <= app_fraction <= 1.0:
            raise ValueError("app_fraction must be in [0, 1]")
        if not 0.0 <= mutate <= 1.0:
            raise ValueError("mutate must be in [0, 1]")
        self.seed = int(seed)
        self.app_fraction = app_fraction
        self.mutate = mutate

    # ------------------------------------------------------------------
    def sample(self, index: int) -> GeneratedScenario:
        """Deterministically sample and pre-flight scenario ``index``."""
        rng = np.random.default_rng(
            derive_seed(self.seed, f"scenario/{index}"))
        if rng.random() < self.app_fraction:
            scenario = self._sample_application_triple(index, rng)
        else:
            scenario = self._sample_taskgraph_triple(index, rng)
        if self.mutate and rng.random() < self.mutate:
            scenario = self._inject_defect(scenario, rng)
        scenario.meta = {"seed": self.seed, "index": index,
                         "generator": "ScenarioGenerator"}
        diagnostics = verify(scenario, label=scenario.name)
        return GeneratedScenario(index=index, scenario=scenario,
                                 diagnostics=diagnostics)

    def generate(self, count: int) -> list[GeneratedScenario]:
        """Sample scenarios ``0 .. count-1`` in this process."""
        return [self.sample(i) for i in range(count)]

    # ------------------------------------------------------------------
    # Samplers
    # ------------------------------------------------------------------
    def _layered_topology(self, rng: np.random.Generator
                          ) -> list[list[str]]:
        """Node names arranged in layers; every non-entry node gets a
        parent in the previous layer and every entry node a child, so
        the graph is weakly connected and fully reachable."""
        n_layers = int(rng.integers(2, 5))
        return [
            [f"p{layer}_{j}"
             for j in range(int(rng.integers(1, 4)))]
            for layer in range(n_layers)
        ]

    def _wire(self, layers: list[list[str]], rng: np.random.Generator
              ) -> list[tuple[str, str]]:
        edges: list[tuple[str, str]] = []
        present: set[tuple[str, str]] = set()

        def connect(src: str, dst: str) -> None:
            if (src, dst) not in present:
                present.add((src, dst))
                edges.append((src, dst))

        for layer_idx in range(1, len(layers)):
            prev = layers[layer_idx - 1]
            for node in layers[layer_idx]:
                n_parents = int(rng.integers(
                    1, min(2, len(prev)) + 1))
                parents = rng.choice(len(prev), size=n_parents,
                                     replace=False)
                for p in sorted(int(x) for x in parents):
                    connect(prev[p], node)
        # Entry-layer nodes that found no consumer feed a random node
        # of the next layer (keeps the graph connected).
        consumed = {src for src, _ in edges}
        for node in layers[0]:
            if node not in consumed and len(layers) > 1:
                nxt = layers[1]
                connect(node, nxt[int(rng.integers(0, len(nxt)))])
        # Occasional skip edge for topological variety.
        if len(layers) > 2 and rng.random() < 0.4:
            src_layer = 0
            dst_layer = int(rng.integers(2, len(layers)))
            src = layers[src_layer][
                int(rng.integers(0, len(layers[src_layer])))]
            dst = layers[dst_layer][
                int(rng.integers(0, len(layers[dst_layer])))]
            connect(src, dst)
        # Weak connectivity (RC102): random per-layer wiring can split
        # into parallel strands (a->c, b->d).  Bridge components with
        # layer-0 -> layer>=1 edges, which keeps the DAG and never
        # turns a rated source into a join target.
        layer_of = {name: i for i, layer in enumerate(layers)
                    for name in layer}
        succ: dict[str, list[str]] = {name: [] for name in layer_of}
        for src, dst in edges:
            succ[src].append(dst)
        components = sorted(_graphs.components(succ), key=min)
        anchor = min(n for n in components[0] if layer_of[n] == 0)
        for component in components[1:]:
            target = min(n for n in component if layer_of[n] >= 1)
            connect(anchor, target)
        return edges

    def _sample_platform(self, index: int, rng: np.random.Generator,
                         n_work: int) -> Platform:
        n_pes = int(rng.integers(2, 7))
        if rng.random() < 0.5:
            interconnect = BusInterconnect(
                bandwidth=float(rng.choice(_BANDWIDTHS)))
        else:
            interconnect = PointToPointInterconnect(
                bandwidth=float(rng.choice(_BANDWIDTHS)))
        platform = Platform(f"plat{index}", interconnect=interconnect)
        # pe0 is always programmable so ASIC overflow can retarget.
        kinds = [PEKind.GPP]
        choices = (PEKind.GPP, PEKind.DSP, PEKind.ASIP, PEKind.ASIC)
        for _ in range(n_pes - 1):
            kinds.append(choices[int(rng.integers(0, len(choices)))])
        for i, kind in enumerate(kinds):
            platform.add_pe(ProcessingElement(
                f"pe{i}", kind,
                frequency=float(rng.choice(_FREQUENCIES)),
                idle_power=0.02,
            ))
        return platform

    def _sample_mapping(self, names: list[str], platform: Platform,
                        rng: np.random.Generator) -> Mapping:
        """Random total assignment honoring the one-process-per-ASIC
        capability rule (RC114)."""
        pes = platform.pes
        programmable = [pe.name for pe in pes
                        if pe.kind is not PEKind.ASIC]
        free_asics = {pe.name for pe in pes
                      if pe.kind is PEKind.ASIC}
        assignment: dict[str, str] = {}
        for name in names:
            target = pes[int(rng.integers(0, len(pes)))].name
            if target in free_asics:
                free_asics.discard(target)
            elif target not in programmable:
                # ASIC already taken: retarget deterministically.
                target = programmable[
                    int(rng.integers(0, len(programmable)))]
            assignment[name] = target
        return Mapping(assignment)

    def _sample_application_triple(self, index: int,
                                   rng: np.random.Generator
                                   ) -> Scenario:
        layers = self._layered_topology(rng)
        edges = self._wire(layers, rng)
        rate = float(rng.choice(_RATES))
        app = ApplicationGraph(f"app{index}")
        cycles: dict[str, float] = {}
        for layer_idx, layer in enumerate(layers):
            for name in layer:
                cycles[name] = float(rng.integers(1, 200)) * 1e3
                app.add_process(ProcessNode(
                    name,
                    cycles_mean=cycles[name],
                    cycles_cv=float(rng.choice((0.0, 0.2, 0.5))),
                    rate_hz=rate if layer_idx == 0 else None,
                ))
        bits: dict[tuple[str, str], float] = {}
        for src, dst in edges:
            bits[(src, dst)] = float(rng.integers(1, 100)) * 1e3
            app.add_channel(ChannelSpec(
                src, dst,
                bits_per_token=bits[(src, dst)],
                buffer_capacity=int(rng.integers(2, 17)),
            ))
        platform = self._sample_platform(index, rng, len(cycles))
        self._fit_demand(app, platform, rate, cycles, bits)
        names = [p.name for p in app.processes]
        mapping = self._sample_mapping(names, platform, rng)
        qos = None
        if rng.random() < 0.5:
            qos = QoSSpec(
                max_latency=self._safe_latency(app, platform),
                max_loss_rate=float(rng.choice((0.05, 0.1, 0.2))),
            )
        return Scenario(name=f"s{index:04d}", application=app,
                        platform=platform, mapping=mapping, qos=qos)

    def _fit_demand(self, app: ApplicationGraph, platform: Platform,
                    rate: float, cycles: dict[str, float],
                    bits: dict[tuple[str, str], float]) -> None:
        """Scale demands so no assignment can violate RC120/RC122.

        Worst case is everything on the slowest PE (utilization) and
        every edge remote (bandwidth); keeping ``_HEADROOM`` under
        both bounds there keeps every random mapping feasible.
        """
        min_freq = min(pe.frequency for pe in platform.pes)
        total_cycles_per_s = rate * sum(cycles.values())
        budget = _HEADROOM * min_freq
        if total_cycles_per_s > budget:
            factor = budget / total_cycles_per_s
            for process in app.processes:
                process.cycles_mean *= factor
        bandwidth = platform.interconnect.bandwidth
        total_bps = rate * sum(bits.values())
        bps_budget = _HEADROOM * bandwidth
        if total_bps > bps_budget:
            factor = bps_budget / total_bps
            for channel in app.channels:
                channel.bits_per_token *= factor

    def _safe_latency(self, app: ApplicationGraph,
                      platform: Platform) -> float:
        """A latency bound that clears RC121's best-case path check."""
        worst = app.critical_path_cycles()
        f_max = max(pe.frequency for pe in platform.pes)
        return worst / f_max * 10.0 + 0.1

    def _sample_taskgraph_triple(self, index: int,
                                 rng: np.random.Generator) -> Scenario:
        layers = self._layered_topology(rng)
        edges = self._wire(layers, rng)
        tg = TaskGraph(f"tg{index}")
        cycles: dict[str, float] = {}
        for layer in layers:
            for name in layer:
                cycles[name] = float(rng.integers(10, 500)) * 1e3
                tg.add_task(Task(name, cycles=cycles[name]))
        bits: dict[tuple[str, str], float] = {}
        for src, dst in edges:
            bits[(src, dst)] = float(rng.integers(1, 100)) * 1e3
            tg.add_dependency(Dependency(src, dst,
                                         bits=bits[(src, dst)]))
        platform = self._sample_platform(index, rng, len(cycles))
        # Period generous enough that RC120's cycles/period demand
        # fits the slowest PE with headroom.
        min_freq = min(pe.frequency for pe in platform.pes)
        tg.period = sum(cycles.values()) / (min_freq * _HEADROOM)
        # And bandwidth headroom (RC122) even if every edge is remote.
        bps_budget = _HEADROOM * platform.interconnect.bandwidth
        total_bps = sum(bits.values()) / tg.period
        if total_bps > bps_budget:
            factor = bps_budget / total_bps
            for dep in tg.dependencies:
                dep.bits *= factor
        names = [t.name for t in tg.tasks]
        mapping = self._sample_mapping(names, platform, rng)
        return Scenario(name=f"s{index:04d}", task_graph=tg,
                        platform=platform, mapping=mapping)

    # ------------------------------------------------------------------
    # Deliberate defects (oracle fuzzing)
    # ------------------------------------------------------------------
    def _inject_defect(self, scenario: Scenario,
                       rng: np.random.Generator) -> Scenario:
        graph = scenario.graph
        mapping = scenario.mapping
        assignment = mapping.assignment if mapping else {}
        defect = int(rng.integers(0, 3))
        if defect == 0 and assignment:
            # Unmap one process (RC110).
            names = sorted(assignment)
            del assignment[names[int(rng.integers(0, len(names)))]]
        elif defect == 1 and assignment:
            # Bind to a PE the platform does not have (RC112).
            names = sorted(assignment)
            victim = names[int(rng.integers(0, len(names)))]
            assignment[victim] = "pe-missing"
        elif isinstance(graph, ApplicationGraph):
            # Drop every source rate (RC104 + RC101 downstream).
            for process in graph.sources():
                process.rate_hz = None
        elif graph is not None and graph.dependencies:
            # Zero out one dependency volume (RC107).
            deps = graph.dependencies
            deps[int(rng.integers(0, len(deps)))].bits = 0.0
        if mapping is not None:
            scenario.mapping = Mapping(assignment)
        return scenario


# ----------------------------------------------------------------------
# Counterexample minimization
# ----------------------------------------------------------------------
def _failing_rules(scenario: Scenario) -> set[str]:
    return {d.rule for d in verify(scenario, label=scenario.name)}


def _without_process(app, name):
    clone = type(app).from_dict(app.to_dict())
    data = clone.to_dict()
    data["nodes"] = [n for n in data["nodes"] if n["id"] != name]
    data["edges"] = [e for e in data["edges"]
                     if name not in (e["src"], e["dst"])]
    return type(app).from_dict(data)


def minimize(scenario: Scenario) -> Scenario:
    """Shrink a failing scenario while preserving its failure.

    Greedy one-pass delta debugging over model elements: drop graph
    nodes (with their edges), then edges, then unused PEs, then
    mapping entries for deleted processes — keeping each removal only
    if the *same rule set* still fires.  The result is the smallest
    scenario this pass finds that still reproduces every originally
    failing rule (a corpus fixture a human can actually read).
    """
    target = _failing_rules(scenario)
    if not target:
        return scenario

    def still_fails(candidate: Scenario) -> bool:
        return target <= _failing_rules(candidate)

    current = Scenario.from_document(scenario.to_document())
    current.meta = dict(scenario.meta)
    graph = current.graph
    if graph is not None:
        for node in [n.name for n in (
                graph.processes
                if isinstance(graph, ApplicationGraph)
                else graph.tasks)]:
            shrunk = _without_process(graph, node)
            if len(shrunk.to_dict()["nodes"]) == 0:
                continue
            candidate = Scenario.from_document(current.to_document())
            if isinstance(graph, ApplicationGraph):
                candidate.application = shrunk
            else:
                candidate.task_graph = shrunk
            if candidate.mapping is not None:
                assignment = candidate.mapping.assignment
                assignment.pop(node, None)
                candidate.mapping = Mapping(assignment)
            if still_fails(candidate):
                current = candidate
                graph = current.graph
    if current.platform is not None and current.mapping is not None:
        used = set(current.mapping.assignment.values())
        data = current.platform.to_dict()
        kept = [p for p in data["pes"] if p["id"] in used]
        if kept and len(kept) < len(data["pes"]):
            data["pes"] = kept
            candidate = Scenario.from_document(current.to_document())
            candidate.platform = type(current.platform).from_dict(data)
            if still_fails(candidate):
                current = candidate
    current.name = f"{scenario.name}-min"
    current.meta["minimized_from"] = scenario.name
    current.meta["rules"] = sorted(target)
    return current


# ----------------------------------------------------------------------
# Corpus writing
# ----------------------------------------------------------------------
def generate_corpus(
    out_dir: str | Path,
    count: int,
    seed: int = 0,
    app_fraction: float = 0.7,
    mutate: float = 0.0,
) -> CorpusReport:
    """Sample ``count`` scenarios into ``out_dir``.

    Clean samples are written as ``s<index>.json``; oracle
    counterexamples are minimized and written under
    ``counterexamples/`` with the failing rules recorded in ``meta``.
    The directory contents are byte-identical across repeated runs
    with the same seed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    generator = ScenarioGenerator(seed=seed,
                                  app_fraction=app_fraction,
                                  mutate=mutate)
    report = CorpusReport(seed=seed, count=count, out_dir=out_dir)
    for sample in generator.generate(count):
        if sample.clean:
            path = save(sample.scenario,
                        out_dir / f"{sample.scenario.name}.json")
            report.clean_paths.append(path)
        else:
            shrunk = minimize(sample.scenario)
            path = save(shrunk, out_dir / "counterexamples"
                        / f"{shrunk.name}.json")
            report.counterexample_paths.append(path)
    return report
