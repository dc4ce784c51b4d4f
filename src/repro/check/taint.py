"""Determinism-taint analysis (rule ``SF307``).

The deterministic-merge contracts of :mod:`repro.parallel` and
:mod:`repro.scenario` hold only if no scheduling decision depends on
anything but the seed.  This module tracks values *derived from*
nondeterministic sources — wall-clock reads, unseeded RNG draws,
``id()``, ``hash()`` (salted per process), OS entropy, and iteration
order over ``set``\\ s — through assignments, arithmetic, and function
calls, and reports when such a value reaches a **scheduling sink**: an
``env.timeout``/``env.schedule`` delay, a ``seed=`` argument, or the
seed-derivation helpers.

This is the interprocedural upgrade of the Layer-2 point rules
(``SL201``/``SL202`` flag the *call sites*; ``SF307`` flags the *flow*
— ``t0 = time.perf_counter()`` is fine for wall-time measurement and
stays silent until ``t0`` leaks into a timeout).  Function summaries
are computed over the project call graph to a fixpoint: a function
returning tainted data taints its callers, and a function whose
parameter reaches a sink turns every call site passing tainted data
into a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.check.cfg import CFG, ForIter, WithEnter, WithExit, \
    build_cfg, dataflow, function_defs
from repro.check.simlint import (
    _NUMPY_RANDOM_ALLOWED,
    _RANDOM_ALLOWED,
    _WALL_CLOCK as _SL202_WALL_CLOCK,
    ImportTable,
)

__all__ = ["TaintAnalysis", "TaintFinding", "SOURCE_KINDS"]

#: Dotted call targets that read the host wall clock: SL202's set
#: plus the perf counters it allows.  Calling a perf counter is fine,
#: letting the value steer the simulation is not.
_WALL_CLOCK = _SL202_WALL_CLOCK | {
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
}

#: Dotted call targets drawing OS entropy.
_ENTROPY = {
    "os.urandom", "uuid.uuid4", "uuid.uuid1",
    "secrets.token_bytes", "secrets.token_hex", "secrets.randbits",
    "secrets.choice",
}

#: Human labels of the taint kinds SF307 reports.
SOURCE_KINDS = {
    "wall-clock": "a wall-clock read",
    "global-rng": "an unseeded RNG draw",
    "id": "an id() address",
    "hash": "a salted hash() value",
    "entropy": "OS entropy",
    "set-order": "set iteration order",
}

#: Functions whose positional arguments are seed-derivation sinks.
_SINK_FUNCS = {"derive_seed", "replica_seed", "spawn_rng"}


@dataclass(frozen=True)
class TaintFinding:
    """One nondeterministic flow into a scheduling sink."""

    path: str
    line: int
    kind: str
    source_line: int
    sink: str

    @property
    def message(self) -> str:
        origin = SOURCE_KINDS.get(self.kind, self.kind)
        return (f"value derived from {origin} (line "
                f"{self.source_line}) reaches {self.sink} — the "
                f"schedule stops being a pure function of the seed")


@dataclass
class _Summary:
    """Interprocedural behaviour of one function."""

    returns: frozenset = frozenset()        # taint kinds returned
    param_returns: frozenset = frozenset()  # param positions returned
    param_sinks: frozenset = frozenset()    # param positions → sink

    def __eq__(self, other) -> bool:
        return (self.returns == other.returns
                and self.param_returns == other.param_returns
                and self.param_sinks == other.param_sinks)


@dataclass
class _Function:
    path: str
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cfg: CFG
    imports: ImportTable
    summary: _Summary = field(default_factory=_Summary)
    new_param_sinks: set = field(default_factory=set)
    new_param_returns: set = field(default_factory=set)
    new_returns: set = field(default_factory=set)


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) \
        -> list[str]:
    args = node.args
    ordered = [a.arg for a in args.posonlyargs] \
        + [a.arg for a in args.args]
    return ordered


class TaintAnalysis:
    """Project-wide determinism-taint pass.

    Parameters
    ----------
    files:
        ``(path, tree)`` pairs of every module in the analysis scope;
        the call graph resolves across all of them.
    """

    def __init__(self, files: Iterable[tuple[str, ast.Module]]):
        self.functions: dict[tuple[str, str], _Function] = {}
        self._by_tail: dict[str, list[_Function]] = {}
        for path, tree in files:
            imports = ImportTable()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imports.add_import(node)
                elif isinstance(node, ast.ImportFrom):
                    imports.add_import_from(node)
            for qualname, func in function_defs(tree):
                entry = _Function(path, qualname, func,
                                  build_cfg(func), imports)
                self.functions[(path, qualname)] = entry
                tail = qualname.rsplit(".", 1)[-1]
                self._by_tail.setdefault(tail, []).append(entry)

    # -- call resolution ----------------------------------------------
    def _resolve(self, caller: _Function,
                 func_expr: ast.expr) -> _Function | None:
        if isinstance(func_expr, ast.Name):
            name = func_expr.id
            local = self.functions.get((caller.path, name))
            if local is not None:
                return local
        elif isinstance(func_expr, ast.Attribute):
            name = func_expr.attr
            # self.m() prefers a method of the same module.
            candidates = [f for f in self._by_tail.get(name, ())
                          if f.path == caller.path
                          and "." in f.qualname]
            if len(candidates) == 1:
                return candidates[0]
        else:
            return None
        project = self._by_tail.get(name, ())
        return project[0] if len(project) == 1 else None

    # -- expression taint ---------------------------------------------
    def _call_taint(self, caller: _Function, node: ast.Call,
                    state: dict) -> frozenset:
        dotted = caller.imports.resolve(node.func)
        kinds: set = set()
        if dotted is not None:
            if dotted in _WALL_CLOCK:
                kinds.add(("wall-clock", node.lineno))
            elif dotted in _ENTROPY:
                kinds.add(("entropy", node.lineno))
            elif dotted.startswith("random."):
                member = dotted.split(".", 1)[1]
                if member not in _RANDOM_ALLOWED:
                    kinds.add(("global-rng", node.lineno))
            elif dotted.startswith("numpy.random."):
                member = dotted.split(".", 2)[2].split(".")[0]
                if member not in _NUMPY_RANDOM_ALLOWED:
                    kinds.add(("global-rng", node.lineno))
        if isinstance(node.func, ast.Name):
            if node.func.id == "id":
                kinds.add(("id", node.lineno))
            elif node.func.id == "hash":
                kinds.add(("hash", node.lineno))
        callee = self._resolve(caller, node.func)
        if callee is not None:
            for kind in callee.summary.returns:
                kinds.add((kind, node.lineno))
            for pos in callee.summary.param_returns:
                for fact in self._arg_taint(caller, node, pos, state):
                    kinds.add(fact)
        return frozenset(kinds)

    def _arg_taint(self, caller: _Function, call: ast.Call,
                   pos: int, state: dict) -> frozenset:
        if pos < len(call.args):
            return self._expr_taint(caller, call.args[pos], state)
        return frozenset()

    def _expr_taint(self, caller: _Function, expr: ast.expr,
                    state: dict) -> frozenset:
        kinds: set = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                kinds |= {f for f in state.get(node.id, frozenset())
                          if f[0] != "isset"}
            elif isinstance(node, ast.Call):
                kinds |= self._call_taint(caller, node, state)
        return frozenset(kinds)

    def _is_set_expr(self, expr: ast.expr, state: dict) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) \
                and isinstance(expr.func, ast.Name) \
                and expr.func.id in {"set", "frozenset"}:
            return True
        if isinstance(expr, ast.Name):
            return any(f[0] == "isset"
                       for f in state.get(expr.id, frozenset()))
        return False

    # -- sinks ---------------------------------------------------------
    def _sink_args(self, node: ast.Call) \
            -> list[tuple[ast.expr, str]]:
        out: list[tuple[ast.expr, str]] = []
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "timeout":
                if node.args:
                    out.append((node.args[0], "a timeout delay"))
            elif func.attr == "schedule" and len(node.args) > 1:
                out.append((node.args[1], "a schedule delay"))
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None)
        if name in _SINK_FUNCS:
            for arg in node.args:
                out.append((arg, f"{name}() (seed derivation)"))
        for keyword in node.keywords:
            if keyword.arg == "seed":
                out.append((keyword.value, "a seed= argument"))
            elif keyword.arg == "delay" and isinstance(
                    func, ast.Attribute) \
                    and func.attr in {"timeout", "schedule"}:
                out.append((keyword.value, "a schedule delay"))
        return out

    # -- per-function dataflow ----------------------------------------
    def _transfer(self, entry: _Function,
                  sink_hook: Callable | None):
        def transfer(state: dict, atom) -> dict:
            if isinstance(atom, (WithEnter, WithExit)):
                return state
            if isinstance(atom, ForIter):
                target = atom.node.target
                taints = self._expr_taint(entry, atom.node.iter,
                                          state)
                if self._is_set_expr(atom.node.iter, state):
                    taints |= {("set-order", atom.node.lineno)}
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        state = dict(state)
                        if taints:
                            state[name_node.id] = taints
                        else:
                            state.pop(name_node.id, None)
                return state
            # Sinks can sit in any statement; check before rebinding.
            if sink_hook is not None:
                for node in ast.walk(atom):
                    if isinstance(node, ast.Call):
                        for arg, label in self._sink_args(node):
                            taints = self._expr_taint(entry, arg,
                                                      state)
                            for fact in taints:
                                sink_hook(node, fact, label)
            if isinstance(atom, ast.Return) and atom.value is not None:
                taints = self._expr_taint(entry, atom.value, state)
                for kind, _line in taints:
                    if isinstance(kind, tuple):  # ("param", i)
                        entry.new_param_returns.add(kind[1])
                    else:
                        entry.new_returns.add(kind)
                return state
            if isinstance(atom, ast.Assign):
                taints = self._expr_taint(entry, atom.value, state)
                isset = self._is_set_expr(atom.value, state)
                state = dict(state)
                for target in atom.targets:
                    if isinstance(target, ast.Name):
                        facts = set(taints)
                        if isset:
                            facts.add(("isset", atom.lineno))
                        if facts:
                            state[target.id] = frozenset(facts)
                        else:
                            state.pop(target.id, None)
                return state
            if isinstance(atom, ast.AugAssign) \
                    and isinstance(atom.target, ast.Name):
                taints = self._expr_taint(entry, atom.value, state)
                if taints:
                    state = dict(state)
                    state[atom.target.id] = \
                        state.get(atom.target.id, frozenset()) | taints
                return state
            if isinstance(atom, ast.AnnAssign) \
                    and atom.value is not None \
                    and isinstance(atom.target, ast.Name):
                taints = self._expr_taint(entry, atom.value, state)
                state = dict(state)
                if taints:
                    state[atom.target.id] = taints
                else:
                    state.pop(atom.target.id, None)
                return state
            return state

        return transfer

    def _run_function(self, entry: _Function,
                      sink_hook: Callable | None) -> None:
        initial = {
            name: frozenset({(("param", i), entry.node.lineno)})
            for i, name in enumerate(_param_names(entry.node))
        }
        entry.new_returns = set()
        entry.new_param_returns = set()

        def summary_sink(node: ast.Call, fact, label: str) -> None:
            kind, _line = fact
            if isinstance(kind, tuple):  # ("param", i) reaches a sink
                entry.new_param_sinks.add(kind[1])
            elif sink_hook is not None:
                sink_hook(node, fact, label)

        transfer = self._transfer(entry, summary_sink)
        dataflow(entry.cfg, transfer, initial)

    # -- driver --------------------------------------------------------
    def summarize(self, max_rounds: int = 6) -> None:
        """Iterate function summaries over the call graph to a
        fixpoint (bounded by ``max_rounds``)."""
        for _ in range(max_rounds):
            changed = False
            for entry in self.functions.values():
                entry.new_param_sinks = set()
                self._run_function(entry, sink_hook=None)
                summary = _Summary(
                    returns=frozenset(entry.new_returns),
                    param_returns=frozenset(entry.new_param_returns),
                    param_sinks=frozenset(
                        entry.new_param_sinks
                        | set(entry.summary.param_sinks)),
                )
                if summary != entry.summary:
                    entry.summary = summary
                    changed = True
            if not changed:
                break

    def findings(self) -> list[TaintFinding]:
        """Summaries + one reporting pass → every SF307 flow."""
        self.summarize()
        results: list[TaintFinding] = []
        seen: set[tuple] = set()
        for entry in self.functions.values():

            def hook(node: ast.Call, fact, label: str,
                     entry: _Function = entry) -> None:
                kind, src_line = fact
                if isinstance(kind, tuple):
                    return  # parameter taint is a summary, not a bug
                key = (entry.path, node.lineno, kind, label)
                if key in seen:
                    return
                seen.add(key)
                results.append(TaintFinding(
                    entry.path, node.lineno, kind, src_line, label))

            self._run_function(entry, sink_hook=hook)
            # Interprocedural sinks: tainted argument into a callee
            # whose parameter reaches a sink.
            self._call_site_sinks(entry, seen, results)
        results.sort(key=lambda f: (f.path, f.line, f.kind))
        return results

    def _call_site_sinks(self, entry: _Function, seen: set,
                         results: list[TaintFinding]) -> None:
        def hook(node, fact, label):  # direct sinks handled above
            return

        transfer = self._transfer(entry, None)
        initial: dict = {}
        states = dataflow(entry.cfg, transfer, initial)
        for block in entry.cfg.reachable():
            state = states.get(block.id)
            if state is None:
                continue
            for atom in block.stmts:
                if not isinstance(atom, (WithEnter, WithExit,
                                         ForIter)):
                    for node in ast.walk(atom):
                        if isinstance(node, ast.Call):
                            self._check_callee_sink(
                                entry, node, state, seen, results)
                state = transfer(state, atom)

    def _check_callee_sink(self, entry: _Function, node: ast.Call,
                           state: dict, seen: set,
                           results: list[TaintFinding]) -> None:
        callee = self._resolve(entry, node.func)
        if callee is None or not callee.summary.param_sinks:
            return
        for pos in callee.summary.param_sinks:
            for fact in self._arg_taint(entry, node, pos, state):
                kind, src_line = fact
                if isinstance(kind, tuple):
                    continue
                label = (f"a scheduling sink inside "
                         f"{callee.qualname}()")
                key = (entry.path, node.lineno, kind, label)
                if key in seen:
                    continue
                seen.add(key)
                results.append(TaintFinding(
                    entry.path, node.lineno, kind, src_line, label))
