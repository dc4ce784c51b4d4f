"""Layer 3: "simflow" — interprocedural flow analysis of DES processes.

Where the Layer-2 lint (:mod:`repro.check.simlint`) checks individual
statements, this analyzer reasons about what simulation processes *do*
along control-flow paths: it builds a control-flow graph per function
(:mod:`repro.check.cfg`), a call graph across the analyzed files, and
runs a flow-sensitive abstract interpretation over the DES-kernel API.

Rules (catalog in :mod:`repro.check.diagnostics`):

* ``SF301`` — a kernel event bound to a variable is overwritten by a
  new event before being yielded: the first event leaks unwaited.
* ``SF302`` — a process function (one that yields kernel events) also
  yields a bare constant; the kernel rejects non-event yields at run
  time, this catches it statically.
* ``SF303`` — resource acquire/release pairing: a ``request()`` held
  across a ``yield`` without ``try/finally`` release leaks when the
  process is interrupted, and a path that reaches function exit
  without releasing leaks unconditionally.  ``with``-scoped requests
  are always safe.
* ``SF304`` — process functions acquire two resources in conflicting
  orders (a cycle in the project-wide acquisition-order graph):
  potential deadlock.
* ``SF306`` — an infinite loop in a process function with no ``yield``
  in its body: the process spins without ever returning control to
  the scheduler, starving the simulation.
* ``SF307`` — determinism taint (:mod:`repro.check.taint`): a value
  derived from wall clock / unseeded RNG / ``id()`` / ``hash()`` /
  set iteration order reaches a timeout, schedule, or seed argument.

``SF305`` (an event scheduled with a literal negative delay) is
retired: ``Environment.schedule`` and ``Timeout`` already raise
``ValueError`` before the event queue is touched.

:func:`analyze_trees` reports every finding; the source pass in
:mod:`repro.check.repo` runs it together with the Layer-2 lint and
applies the ``# simlint: ignore[SF303]`` pragmas
(:mod:`repro.check.pragmas`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.check.cfg import (
    CFG,
    ForIter,
    WithEnter,
    WithExit,
    build_cfg,
    dataflow,
    function_defs,
    is_generator,
)
from repro.check.diagnostics import Diagnostic, make_diagnostic
from repro.check.simlint import _event_method
from repro.check.taint import TaintAnalysis

__all__ = ["analyze_trees"]

#: Method names that consume/settle an event held in a variable.
_EVENT_CONSUMERS = {"succeed", "fail", "trigger"}

#: Method names that release an acquired request.
_RELEASERS = {"cancel", "release"}


def _is_process_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> bool:
    """Heuristic: a generator that is a DES process.

    True when the function yields at least one kernel-event factory
    call, or is a generator with an ``env``/``environment`` parameter
    (the repository's process-function signature convention).  Plain
    data generators match neither and are exempt from the process
    rules.
    """
    if not is_generator(func):
        return False
    params = {a.arg for a in (func.args.posonlyargs + func.args.args
                              + func.args.kwonlyargs)}
    if params & {"env", "environment"}:
        return True
    return _yields_events(func)


def _yields_events(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> bool:
    for node in _walk_function(func):
        if isinstance(node, ast.Yield) \
                and isinstance(node.value, ast.Call) \
                and _event_method(node.value) is not None:
            return True
    return False


def _uses_kernel_events(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> bool:
    """True when the function creates kernel events anywhere — the
    gate for SF302: a generator that drives the kernel must not also
    yield bare constants, while a pure data generator may."""
    for node in _walk_function(func):
        if isinstance(node, ast.Call) \
                and _event_method(node) is not None:
            return True
    return False


def _walk_function(func: ast.AST) -> Iterable[ast.AST]:
    """Walk ``func`` without descending into nested definitions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _parent_map(func: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(func):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _releases_var(stmts: list[ast.stmt], var: str) -> bool:
    """True when ``stmts`` contain a release of request ``var``
    (``res.release(var)`` or ``var.cancel()``)."""
    for stmt in stmts:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) \
                    or func.attr not in _RELEASERS:
                continue
            if isinstance(func.value, ast.Name) \
                    and func.value.id == var:
                return True  # var.cancel() / var.release()
            if any(isinstance(arg, ast.Name) and arg.id == var
                   for arg in node.args):
                return True  # res.release(var)
    return False


def _yield_protected(node: ast.AST,
                     parents: dict[ast.AST, ast.AST],
                     var: str) -> bool:
    """True when an exception escaping ``node`` runs a release of
    ``var`` — i.e. some enclosing ``try`` whose protected body holds
    ``node`` has a ``finally`` (or a handler) releasing it."""
    child = node
    parent = parents.get(node)
    while parent is not None:
        if isinstance(parent, ast.Try):
            in_body = any(_contains(stmt, child)
                          for stmt in parent.body + parent.orelse)
            if in_body:
                if _releases_var(parent.finalbody, var):
                    return True
                for handler in parent.handlers:
                    if _releases_var(handler.body, var):
                        return True
        child, parent = parent, parents.get(parent)
    return False


def _contains(root: ast.AST, target: ast.AST) -> bool:
    if root is target:
        return True
    return any(target is node for node in ast.walk(root))


# ----------------------------------------------------------------------
# Lock-order collection (SF304)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _LockEdge:
    first: str
    second: str
    path: str
    func: str
    line: int


def _resource_text(expr: ast.expr) -> str:
    """Stable identity of the resource a ``request()`` targets: the
    unparsed receiver expression (``self.bus``, ``links[i]``)."""
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<resource>"


def _collect_lock_edges(path: str, qualname: str,
                        func: ast.FunctionDef | ast.AsyncFunctionDef,
                        ) -> list[_LockEdge]:
    """Acquisition-order pairs of one process function, collected by a
    source-order walk (held set maintained through with-scopes and
    explicit releases)."""
    edges: list[_LockEdge] = []
    held: list[str] = []
    var_to_res: dict[str, str] = {}

    def acquire(res: str, line: int) -> None:
        for earlier in held:
            if earlier != res:
                edges.append(_LockEdge(earlier, res, path, qualname,
                                       line))
        held.append(res)

    def visit(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                scoped: list[str] = []
                for item in stmt.items:
                    ctx = item.context_expr
                    if isinstance(ctx, ast.Call) \
                            and _event_method(ctx) == "request":
                        res = _resource_text(ctx.func.value)
                        acquire(res, stmt.lineno)
                        scoped.append(res)
                visit(stmt.body)
                for res in reversed(scoped):
                    if res in held:
                        held.remove(res)
                continue
            if isinstance(stmt, ast.Assign) \
                    and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Call) \
                    and _event_method(stmt.value) == "request":
                res = _resource_text(stmt.value.func.value)
                acquire(res, stmt.lineno)
                var_to_res[stmt.targets[0].id] = res
            # Releases anywhere in the statement.
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _RELEASERS:
                    released: str | None = None
                    if isinstance(node.func.value, ast.Name):
                        released = var_to_res.get(node.func.value.id)
                    for arg in node.args:
                        if isinstance(arg, ast.Name) \
                                and arg.id in var_to_res:
                            released = var_to_res[arg.id]
                    if released is not None and released in held:
                        held.remove(released)
            # Recurse into compound statements.
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if inner and not isinstance(
                        stmt, (ast.With, ast.AsyncWith)):
                    visit(inner)
            for handler in getattr(stmt, "handlers", ()) or ():
                visit(handler.body)

    visit(func.body)
    return edges


def _lock_cycles(edges: list[_LockEdge]) -> list[list[_LockEdge]]:
    """Cycles in the acquisition-order graph, as edge lists.

    Detection is pairwise-and-up via DFS over the resource graph;
    each cycle is reported once (deduped by its resource set).
    """
    graph: dict[str, dict[str, _LockEdge]] = {}
    for edge in edges:
        graph.setdefault(edge.first, {}).setdefault(edge.second, edge)
    cycles: list[list[_LockEdge]] = []
    seen: set[frozenset[str]] = set()

    def dfs(start: str, node: str, trail: list[_LockEdge],
            visited: set[str]) -> None:
        for nxt, edge in graph.get(node, {}).items():
            if nxt == start and trail:
                key = frozenset(e.first for e in trail + [edge])
                if key not in seen:
                    seen.add(key)
                    cycles.append(trail + [edge])
            elif nxt not in visited and len(trail) < 6:
                visited.add(nxt)
                dfs(start, nxt, trail + [edge], visited)
                visited.discard(nxt)

    for start in sorted(graph):
        dfs(start, start, [], {start})
    return cycles


# ----------------------------------------------------------------------
# Per-function flow rules: SF301, SF303
# ----------------------------------------------------------------------
class _FunctionFlow:
    """Flow-sensitive event/resource state machine of one function."""

    def __init__(self, path: str, qualname: str,
                 func: ast.FunctionDef | ast.AsyncFunctionDef,
                 cfg: CFG, emit) -> None:
        self.path = path
        self.qualname = qualname
        self.func = func
        self.cfg = cfg
        self.emit = emit
        self.parents = _parent_map(func)
        self.reported: set[tuple] = set()

    # -- mention classification ---------------------------------------
    def _mentions(self, atom) -> dict[str, set[str]]:
        """Classify how each variable is used inside ``atom``.

        Categories: ``call-arg`` (escapes), ``released`` (receiver of
        cancel/release or argument of a ``release`` call),
        ``yield-use`` (inside a yield, outside any call), ``load``
        (anything else).
        """
        uses: dict[str, set[str]] = {}
        parents = {}
        for node in ast.walk(atom) if not isinstance(
                atom, (WithEnter, WithExit, ForIter)) else ():
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node, parent in list(parents.items()):
            if not isinstance(node, ast.Name) \
                    or not isinstance(node.ctx, ast.Load):
                continue  # Store/Del targets are rebinds, not uses
            name = node.id
            kind = "load"
            if isinstance(parent, ast.Call):
                if node in parent.args or any(
                        kw.value is node for kw in parent.keywords):
                    func = parent.func
                    if isinstance(func, ast.Attribute) \
                            and func.attr in _RELEASERS:
                        kind = "released"
                    else:
                        kind = "call-arg"
            if isinstance(parent, ast.Attribute) \
                    and parent.value is node \
                    and isinstance(parents.get(parent), ast.Call) \
                    and parents[parent].func is parent:
                if parent.attr in _RELEASERS:
                    kind = "released"
                elif parent.attr in _EVENT_CONSUMERS:
                    kind = "call-arg"
            if kind == "load":
                walker = parent
                while walker is not None:
                    if isinstance(walker, (ast.Yield, ast.YieldFrom)):
                        kind = "yield-use"
                        break
                    if isinstance(walker, ast.Call):
                        kind = "call-arg"
                        break
                    walker = parents.get(walker)
            uses.setdefault(name, set()).add(kind)
        return uses

    def _report(self, key: tuple, rule: str, message: str,
                line: int) -> None:
        if key in self.reported:
            return
        self.reported.add(key)
        self.emit(rule, message, line)

    # -- transfer ------------------------------------------------------
    def transfer(self, state: dict, atom, reporting: bool) -> dict:
        if isinstance(atom, (WithEnter, WithExit)):
            return state  # with-scoped requests are safe by design
        if isinstance(atom, ForIter):
            state = dict(state)
            for node in ast.walk(atom.node.target):
                if isinstance(node, ast.Name):
                    state.pop(node.id, None)
            return state

        uses = self._mentions(atom)

        # Exception-path check: a yield while a request is held and
        # no enclosing try releases it.
        if reporting:
            yields = [n for n in ast.walk(atom)
                      if isinstance(n, (ast.Yield, ast.YieldFrom))]
            if yields:
                for var, facts in state.items():
                    # ``yield req`` — waiting for the grant itself —
                    # is the canonical acquire step, not a hold
                    # across unrelated simulated work; only later
                    # yields need the try/finally protection.
                    if all(isinstance(y.value, ast.Name)
                           and y.value.id == var for y in yields):
                        continue
                    for fact in facts:
                        if fact[0] != "acquired":
                            continue
                        _, acq_line, res = fact
                        if not _yield_protected(yields[0],
                                                self.parents, var):
                            self._report(
                                ("SF303-yield", var, acq_line),
                                "SF303",
                                f"request {var!r} on {res} (line "
                                f"{acq_line}) is held across a yield "
                                f"without try/finally release — an "
                                f"interrupt or failure here leaks "
                                f"the resource",
                                atom.lineno if hasattr(atom, "lineno")
                                else acq_line,
                            )

        # Apply use-based clearing.
        new_state = None
        for var, kinds in uses.items():
            facts = state.get(var)
            if not facts:
                continue
            keep = set()
            for fact in facts:
                if fact[0] == "pending":
                    continue  # any mention consumes/waives pending
                if fact[0] == "acquired":
                    if kinds & {"call-arg", "released"}:
                        continue  # escaped or released
                    keep.add(fact)
            if keep != facts:
                if new_state is None:
                    new_state = dict(state)
                if keep:
                    new_state[var] = frozenset(keep)
                else:
                    new_state.pop(var, None)
        if new_state is not None:
            state = new_state

        # Rebinding rules.
        target_var: str | None = None
        value: ast.expr | None = None
        if isinstance(atom, ast.Assign) and len(atom.targets) == 1 \
                and isinstance(atom.targets[0], ast.Name):
            target_var = atom.targets[0].id
            value = atom.value
        elif isinstance(atom, ast.AnnAssign) \
                and isinstance(atom.target, ast.Name):
            target_var = atom.target.id
            value = atom.value
        if target_var is None:
            return state

        old_facts = state.get(target_var, frozenset())
        if reporting:
            for fact in old_facts:
                if fact[0] == "pending":
                    self._report(
                        ("SF301", target_var, fact[1]), "SF301",
                        f"kernel event in {target_var!r} (created "
                        f"line {fact[1]} by .{fact[2]}(...)) is "
                        f"overwritten before being yielded — the "
                        f"first event is never waited on",
                        atom.lineno,
                    )
                elif fact[0] == "acquired":
                    self._report(
                        ("SF303-rebind", target_var, fact[1]),
                        "SF303",
                        f"request {target_var!r} on {fact[2]} "
                        f"(acquired line {fact[1]}) is overwritten "
                        f"without release — the grant leaks",
                        atom.lineno,
                    )

        state = dict(state)
        state.pop(target_var, None)
        new_facts: set = set()
        if value is not None and isinstance(value, ast.Call):
            method = _event_method(value)
            if method == "request":
                res = _resource_text(value.func.value)
                new_facts.add(("acquired", atom.lineno, res))
                new_facts.add(("pending", atom.lineno, method))
            elif method is not None and method not in ("put",):
                new_facts.add(("pending", atom.lineno, method))
        if new_facts:
            state[target_var] = frozenset(new_facts)
        return state

    def run(self) -> None:
        def quiet(state: dict, atom) -> dict:
            return self.transfer(state, atom, reporting=False)

        states = dataflow(self.cfg, quiet, {})
        # Reporting pass over the fixpoint.
        for block in self.cfg.reachable():
            state = states.get(block.id)
            if state is None:
                continue
            for atom in block.stmts:
                state = self.transfer(state, atom, reporting=True)
        # Leak on exit: any acquired fact that may reach the exit.
        exit_state = states.get(self.cfg.exit.id, {})
        for var, facts in sorted(exit_state.items()):
            for fact in sorted(facts, key=repr):
                if fact[0] != "acquired":
                    continue
                _, acq_line, res = fact
                self._report(
                    ("SF303-exit", var, acq_line), "SF303",
                    f"request {var!r} on {res} (acquired line "
                    f"{acq_line}) can reach function exit without "
                    f"release — early returns leak the grant",
                    acq_line,
                )


# ----------------------------------------------------------------------
# Syntactic per-function rules: SF302, SF306
# ----------------------------------------------------------------------
def _check_yields(path: str, func, emit) -> None:
    if not (_yields_events(func) or _uses_kernel_events(func)):
        return
    for node in _walk_function(func):
        if not isinstance(node, ast.Yield):
            continue
        value = node.value
        # A yield of nothing or of a literal constant (``-1``
        # included) can never be a kernel event.
        bare = (value is None
                or isinstance(value, ast.Constant)
                or (isinstance(value, ast.UnaryOp)
                    and isinstance(value.operand, ast.Constant)))
        if bare:
            shown = ("nothing" if value is None
                     else repr(getattr(value, "value", "...")))
            emit("SF302",
                 f"process yields {shown}, which is not a kernel "
                 f"event — the kernel raises TypeError at run time; "
                 f"yield env.timeout(delay) to advance time",
                 node.lineno)


def _check_starvation(path: str, func, emit) -> None:
    for node in _walk_function(func):
        if not isinstance(node, ast.While):
            continue
        const_true = (isinstance(node.test, ast.Constant)
                      and bool(node.test.value))
        mentions_now = any(
            isinstance(sub, ast.Attribute) and sub.attr == "now"
            for sub in ast.walk(node.test))
        if not (const_true or mentions_now):
            continue
        has_out = False
        stack = list(node.body)
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Return,
                                ast.Raise, ast.Break)):
                has_out = True
                break
            if isinstance(sub, (ast.FunctionDef,
                                ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(sub))
        if not has_out:
            reason = ("while True" if const_true
                      else "a condition on simulated time")
            emit("SF306",
                 f"loop over {reason} never yields: simulated time "
                 f"cannot advance inside the body, so the process "
                 f"spins forever and starves the scheduler",
                 node.lineno)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def analyze_trees(
    files: list[tuple[str, ast.Module]],
) -> list[Diagnostic]:
    """Every Layer-3 finding in ``files``, before pragma filtering.

    All files are analyzed as one project: the call graph and the
    lock-order graph span every file, which is what makes SF304 and
    SF307 interprocedural.
    """
    diagnostics: list[Diagnostic] = []
    lock_edges: list[_LockEdge] = []

    for label, tree in files:
        def emit(rule: str, message: str, line: int,
                 label: str = label) -> None:
            diagnostics.append(
                make_diagnostic(rule, message, label, line=line))

        for qualname, func in function_defs(tree):
            if not _is_process_function(func):
                continue
            _check_yields(label, func, emit)
            _check_starvation(label, func, emit)
            _FunctionFlow(label, qualname, func, build_cfg(func),
                          emit).run()
            lock_edges.extend(_collect_lock_edges(label, qualname,
                                                  func))

    # SF304: cycles in the cross-function acquisition-order graph.
    for cycle in _lock_cycles(lock_edges):
        resources = " -> ".join([e.first for e in cycle]
                                + [cycle[0].first])
        sites = ", ".join(f"{e.func} ({e.path}:{e.line})"
                          for e in cycle)
        for edge in cycle:
            diagnostics.append(make_diagnostic(
                "SF304",
                f"resources are acquired in a cycle {resources} "
                f"across process functions [{sites}] — two processes "
                f"interleaving these acquisitions deadlock",
                edge.path, line=edge.line))

    # SF307: project-wide determinism taint.
    for finding in TaintAnalysis(files).findings():
        diagnostics.append(make_diagnostic(
            "SF307", finding.message, finding.path,
            line=finding.line))
    return diagnostics
