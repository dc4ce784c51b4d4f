"""Per-layer measurement of a traced run, taken from outside the
program.

Two instruments, used on separate passes so that neither distorts the
other:

* :class:`SpanRecorder` wraps the public functions the experiments
  call, at the name each caller looks up, and records a span (name,
  start, end, parent) per call plus plain call counters.  Spans stay in
  memory until :meth:`SpanRecorder.write` at the end of the run.
* :func:`self_time_by_layer` buckets the stacks of the program's own
  sampling :class:`repro.obs.perf.Profiler` by the package of the
  innermost ``repro`` frame, which splits time spent *inside*
  ``Environment.run`` between the kernel and the model code it calls.
"""

from __future__ import annotations

import json
import sysconfig
import time
from pathlib import Path
from typing import Any, Callable

#: Layers of the sampled self-time split, named after the packages of
#: ``repro``; ``numpy`` covers numpy and scipy, ``other`` the rest.
SELF_LAYERS = ("des", "noc", "traffic", "manet", "analysis", "streams",
               "streaming", "core", "asip", "wireless", "ambient",
               "resilience", "numpy", "obs", "check", "experiments",
               "parallel", "other")


class SpanRecorder:
    """In-memory spans and call counters for one traced pass."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per call.
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._restores: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def traced(self, name_of: Callable[..., str],
               func: Callable) -> Callable:
        """``func`` wrapped to record one span per call."""
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name_of(*args, **kwargs), time.perf_counter(),
                          None, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = time.perf_counter()

        return wrapper

    def patch(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until
        :meth:`restore`; class methods stay class methods."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._restores.append(lambda: setattr(owner, attr, raw))

    def span(self, owner: Any, attr: str, name: str | Callable) -> None:
        """Record a span named ``name`` (or ``name(*args)``) around
        every call of ``owner.attr``."""
        name_of = name if callable(name) else (lambda *a, **k: name)
        self.patch(owner, attr, lambda func: self.traced(name_of, func))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._restores:
            self._restores.pop()()

    # -- results -------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Host seconds per span name, counting a span only when no
        enclosing span has the same name (no double counting of
        re-entrant calls)."""
        spans = self.spans
        out: dict[str, float] = {}
        for name, start, end, parent in spans:
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0 and end is not None:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def calls(self) -> dict[str, int]:
        """Calls per span name, plus the plain counters."""
        out = dict(self.counts)
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (times relative to the
        first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "parent": parent,
                    "start_s": start - origin,
                    "end_s": None if end is None else end - origin,
                }) + "\n")


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark measures."""
    from repro import experiments, manet, noc, parallel, traffic
    from repro.des import Environment
    from repro.experiments import registry
    from repro.noc import Mesh2D
    from repro.obs.report import RunReport
    from repro.parallel import engine

    def first_arg(prefix: str) -> Callable[..., str]:
        return lambda exp_id, *a, **k: f"{prefix}.{exp_id.lower()}"

    recorder.span(experiments, "run", first_arg("exp"))
    recorder.span(parallel, "run_replicated", first_arg("sweep"))
    recorder.span(noc, "simulated_annealing_mapping", "noc.sa_mapping")
    recorder.span(noc, "packet_size_sweep", "noc.packet_size_sweep")
    recorder.span(noc, "bus_vs_noc_sweep", "noc.bus_vs_noc_sweep")
    recorder.span(noc, "memory_organization_study", "noc.memory_study")
    recorder.span(traffic, "autocorrelation", "traffic.autocorrelation")
    recorder.span(traffic, "rs_hurst", "traffic.rs_hurst")
    recorder.span(manet, "compare_protocols", "manet.compare_protocols")
    recorder.span(Environment, "run", "des.run")
    # registry.run calls its module-level preflight; run_replicated
    # calls it through the package.
    recorder.span(registry, "preflight", "check.preflight")
    recorder.span(experiments, "preflight", "check.preflight")
    recorder.span(RunReport, "from_run", "obs.run_report")
    recorder.span(engine, "merge_replicas", "parallel.merge")

    counts = recorder.counts
    counts["noc.mesh_hops"] = 0

    def count_hops(hops: Callable) -> Callable:
        def counted(self, src, dst):  # no *args: ~1M calls per pass
            counts["noc.mesh_hops"] += 1
            return hops(self, src, dst)
        return counted

    recorder.patch(Mesh2D, "hops", count_hops)


# -- sampled self time ---------------------------------------------------
def _code_keys(code) -> list:
    keys, stack = [], [code]
    while stack:
        current = stack.pop()
        keys.append((Path(current.co_filename).name,
                     current.co_firstlineno, current.co_name))
        stack.extend(const for const in current.co_consts
                     if hasattr(const, "co_firstlineno"))
    return keys


def repro_code_index(src: Path) -> dict[tuple[str, int, str], str]:
    """``(file name, first line, function) -> layer`` for every code
    object in ``src/repro`` -- the key the profiler labels frames
    with."""
    package_root = src / "repro"
    index: dict[tuple[str, int, str], str] = {}
    for path in sorted(package_root.rglob("*.py")):
        parts = path.relative_to(package_root).parts
        layer = parts[0] if len(parts) > 1 else "other"
        if layer not in SELF_LAYERS:
            layer = "other"
        code = compile(path.read_text(encoding="utf-8"), str(path),
                       "exec")
        for key in _code_keys(code):
            index[key] = layer
    return index


def numpy_file_names() -> frozenset[str]:
    """Source file names of numpy and scipy that the standard library
    does not also use."""
    import numpy
    import scipy

    names = set()
    for package in (numpy, scipy):
        names.update(p.name for p in
                     Path(package.__file__).parent.rglob("*.py"))
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    names.difference_update(p.name for p in stdlib.glob("*.py"))
    names.difference_update(p.name for p in stdlib.glob("*/*.py")
                            if "-packages" not in p.parent.name)
    return frozenset(names)


def layer_of_stack(labels: list[str], index: dict,
                   numpy_names: frozenset[str]) -> str:
    """The layer a sampled stack's self time belongs to: the package of
    its innermost ``repro`` frame, or ``numpy`` when a numpy/scipy
    frame is nearer the leaf."""
    for label in reversed(labels):
        try:
            name, line, func = label.rsplit(":", 2)
            key = (name, int(line), func)
        except ValueError:
            continue
        layer = index.get(key)
        if layer is not None:
            return layer
        if name in numpy_names:
            return "numpy"
    return "other"


def self_time_by_layer(folded: dict[str, float], index: dict,
                       numpy_names: frozenset[str]) -> dict[str, float]:
    """Sampled seconds per layer from a profiler's folded stacks."""
    out = dict.fromkeys(SELF_LAYERS, 0.0)
    for stack, seconds in folded.items():
        layer = layer_of_stack(stack.split(";"), index, numpy_names)
        out[layer] += seconds
    return out
