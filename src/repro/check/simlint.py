"""Layer 2: "simlint" — AST lint for discrete-event simulation code.

Simulation code has discipline rules ordinary linters do not know:
every random draw must come from a seeded, named stream; simulated
time must never mix with the host's wall clock; kernel events created
inside a generator process must be yielded; and the simulated clock
must never be compared with ``==``.  This module enforces them with a
stdlib-:mod:`ast` pass (no third-party dependencies).

Rules (catalog in :mod:`repro.check.diagnostics`):

* ``SL201`` — unseeded or global RNG (``random.*``, legacy
  ``numpy.random.*`` module calls, ``default_rng()`` without a seed).
* ``SL202`` — wall-clock calls (``time.time``, ``datetime.now``,
  ``time.sleep``, ...); ``time.perf_counter`` stays allowed for
  measuring the cost of a run.
* ``SL203`` — a kernel event (``env.timeout(...)``, ``env.event()``,
  ``queue.get()``, ...) created as a bare statement inside a generator
  process instead of being yielded.
* ``SL204`` — mutable default arguments.
* ``SL205`` — ``==``/``!=`` against simulated time (``env.now``).
* ``SL206`` — ``multiprocessing`` / ``concurrent.futures`` imported
  outside :mod:`repro.parallel`, the one sanctioned home for process
  pools (ad-hoc pools bypass seed derivation and counter merging).
* ``SL207`` — a silently swallowed exception: an ``except`` catching
  ``Exception``/``BaseException`` (or nothing at all) whose body only
  ``pass``/``...``/``continue``-s.  Silent fault-masking defeats the
  supervision layer — injected chaos faults and real failures alike
  disappear without a trace.

The layer has no driver of its own: :func:`repro.check.check_source`
and :func:`repro.check.check_repository` run :func:`lint_tree` and the
Layer-3 rules (:mod:`repro.check.simflow`) in one source pass and
apply the ``# simlint:`` pragmas (:mod:`repro.check.pragmas`) once.
"""

from __future__ import annotations

import ast

from repro.check.cfg import is_generator as _cfg_is_generator
from repro.check.diagnostics import Diagnostic, make_diagnostic

__all__ = ["lint_tree", "ImportTable"]

#: random.* members that are constructors/introspection, not draws
#: from the hidden global generator.
_RANDOM_ALLOWED = {"Random", "SystemRandom"}

#: numpy.random members of the modern, explicitly-seeded API.
_NUMPY_RANDOM_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
}

#: Wall-clock reads and blocking sleeps (SL202).  time.perf_counter /
#: process_time stay legal: they measure the cost of the run itself.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.sleep",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Methods that create kernel events (SL203, and the Layer-3 event
#: and resource rules), with the argument-count gates in
#: :func:`_event_method` that keep dict.get()/list-like APIs out.
_EVENT_METHODS = {"timeout", "event", "request", "get", "put",
                  "any_of", "all_of", "hold", "wait"}

#: Names that denote the simulated clock in SL205 comparisons.
_TIME_NAMES = {"now"}

#: Top-level modules whose import marks ad-hoc process parallelism
#: (SL206).  ``repro.parallel`` itself is exempt by path.
_PARALLEL_MODULES = {"multiprocessing", "concurrent"}

#: Path fragments identifying the sanctioned home of process pools.
_PARALLEL_EXEMPT_FRAGMENT = "repro/parallel"

#: Exception names that are too broad to swallow silently (SL207).
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _event_method(call: ast.Call) -> str | None:
    """Name of the kernel-event factory ``call`` invokes, or None."""
    func = call.func
    if not isinstance(func, ast.Attribute) \
            or func.attr not in _EVENT_METHODS:
        return None
    attr = func.attr
    n_args = len(call.args) + len(call.keywords)
    if attr == "get" and n_args != 0:
        return None  # dict.get(key) and friends
    if attr == "put" and n_args != 1:
        return None
    if attr == "request" and n_args > 1:
        return None
    return attr


class ImportTable:
    """Resolve local names to the dotted module paths they came from."""

    def __init__(self) -> None:
        self._names: dict[str, str] = {}

    def add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(
                ".")[0]
            self._names[local] = target

    def add_import_from(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return  # relative imports never shadow stdlib rng/clock
        for alias in node.names:
            local = alias.asname or alias.name
            self._names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted path of an attribute chain, through import aliases.

        ``np.random.rand`` with ``import numpy as np`` resolves to
        ``"numpy.random.rand"``; unresolvable chains give ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self._names.get(node.id)
        if base is None:
            return None
        return ".".join([base, *reversed(parts)])


def _mentions_simulated_time(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in _TIME_NAMES:
            return True
        if isinstance(sub, ast.Name) and sub.id in _TIME_NAMES:
            return True
    return False


def _handler_type_names(node: ast.expr | None) -> set[str]:
    """Terminal names an ``except`` clause catches.

    ``except builtins.Exception`` yields ``{"Exception"}``;
    tuples contribute every member; a bare ``except`` yields the
    empty set (the caller treats ``None`` as catch-everything).
    """
    if node is None:
        return set()
    members = node.elts if isinstance(node, ast.Tuple) else [node]
    names: set[str] = set()
    for member in members:
        if isinstance(member, ast.Attribute):
            names.add(member.attr)
        elif isinstance(member, ast.Name):
            names.add(member.id)
    return names


def _body_swallows(body: list[ast.stmt]) -> bool:
    """True when a handler body does nothing with the exception:
    every statement is ``pass``, ``...``, or ``continue``."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis):
            continue
        return False
    return True


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.imports = ImportTable()
        self.diagnostics: list[Diagnostic] = []
        self._generator_depth = 0
        self._pool_exempt = (
            _PARALLEL_EXEMPT_FRAGMENT in path.replace("\\", "/")
        )

    # -- bookkeeping ---------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        self.imports.add_import(node)
        for alias in node.names:
            self._check_pool_import(alias.name, node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.add_import_from(node)
        if not node.level and node.module is not None:
            self._check_pool_import(node.module, node)
        self.generic_visit(node)

    # -- SL206: process pools outside repro.parallel -------------------
    def _check_pool_import(self, module: str, node: ast.AST) -> None:
        if self._pool_exempt:
            return
        if module.split(".")[0] in _PARALLEL_MODULES:
            self._emit(
                "SL206",
                f"import of {module!r} outside repro.parallel — "
                f"ad-hoc process pools bypass seed derivation and "
                f"kernel-counter merging",
                node,
            )

    def _emit(self, rule_id: str, message: str,
              node: ast.AST) -> None:
        self.diagnostics.append(make_diagnostic(
            rule_id, message, self.path,
            line=getattr(node, "lineno", None),
        ))

    # -- SL204: mutable defaults --------------------------------------
    def _check_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp,
                 ast.DictComp, ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in {"list", "dict", "set"}
            )
            if mutable:
                self._emit(
                    "SL204",
                    f"function {node.name!r} has a mutable default "
                    f"argument",
                    default,
                )

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._check_defaults(node)
        saved = self._generator_depth
        # A nested def opens a fresh scope: bare event calls inside a
        # plain helper are not in generator context even when the
        # helper is defined inside a process.
        self._generator_depth = 1 if _cfg_is_generator(node) else 0
        self.generic_visit(node)
        self._generator_depth = saved

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- SL203: bare kernel events in generator processes -------------
    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        method = (_event_method(call) if self._generator_depth > 0
                  and isinstance(call, ast.Call) else None)
        if method is not None:
            self._emit(
                "SL203",
                f".{method}(...) creates a kernel event that is never "
                f"yielded",
                node,
            )
        self.generic_visit(node)

    # -- SL201 / SL202: calls ------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.imports.resolve(node.func)
        if dotted is not None:
            self._check_rng(dotted, node)
            self._check_wall_clock(dotted, node)
        self.generic_visit(node)

    def _check_rng(self, dotted: str, node: ast.Call) -> None:
        if dotted.startswith("random."):
            member = dotted.split(".", 1)[1]
            if member not in _RANDOM_ALLOWED:
                self._emit(
                    "SL201",
                    f"{dotted}() draws from the global random module "
                    f"state",
                    node,
                )
            elif not node.args and not node.keywords:
                self._emit(
                    "SL201",
                    f"{dotted}() without a seed is irreproducible",
                    node,
                )
            return
        if dotted.startswith("numpy.random."):
            member = dotted.split(".", 2)[2].split(".")[0]
            if member not in _NUMPY_RANDOM_ALLOWED:
                self._emit(
                    "SL201",
                    f"{dotted}() uses numpy's legacy global RNG",
                    node,
                )
            elif (member == "default_rng" and not node.args
                  and not node.keywords):
                self._emit(
                    "SL201",
                    "numpy.random.default_rng() without a seed is "
                    "irreproducible",
                    node,
                )

    def _check_wall_clock(self, dotted: str, node: ast.Call) -> None:
        if dotted in _WALL_CLOCK:
            self._emit(
                "SL202",
                f"{dotted}() reads (or blocks on) the host wall "
                f"clock",
                node,
            )

    # -- SL207: silently swallowed exceptions --------------------------
    def visit_Try(self, node: ast.Try) -> None:
        for handler in node.handlers:
            names = _handler_type_names(handler.type)
            broad = (handler.type is None
                     or bool(names & _BROAD_EXCEPTIONS))
            if broad and _body_swallows(handler.body):
                caught = ("everything" if handler.type is None
                          else ", ".join(sorted(names)))
                self._emit(
                    "SL207",
                    f"except block catches {caught} and silently "
                    f"swallows it — faults (including injected chaos "
                    f"faults) vanish without a trace",
                    handler,
                )
        self.generic_visit(node)

    # -- SL205: float == simulated time --------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        has_eq = any(isinstance(op, (ast.Eq, ast.NotEq))
                     for op in node.ops)
        if has_eq:
            operands = [node.left, *node.comparators]
            if any(_mentions_simulated_time(op) for op in operands):
                self._emit(
                    "SL205",
                    "equality comparison against simulated time "
                    "(env.now) is unreliable for floats",
                    node,
                )
        self.generic_visit(node)


def lint_tree(tree: ast.Module, path: str) -> list[Diagnostic]:
    """Every Layer-2 finding in ``tree``, before pragma filtering."""
    linter = _Linter(path)
    linter.visit(tree)
    return linter.diagnostics
