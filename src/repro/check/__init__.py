"""repro.check — static model verification and simulation lint.

The holistic design flow stands or falls on its models being
well-formed *before* anything is simulated (companion methodologies —
Bhattacharyya & Wolf's tool flows, Borgatti's integrated design and
verification — make this an explicit design-flow stage).  This package
is that stage:

* **Layer 1 — model verifier** (:mod:`repro.check.model`): pure
  functions over :mod:`repro.core` objects that catch structural
  errors (unreachable processes, deadlock cycles), broken mappings,
  guaranteed constraint infeasibility and unit/dimension slips.
  Rule ids ``RC1xx``.
* **Layer 2 — simulation lint** (:mod:`repro.check.simlint`): a
  stdlib-:mod:`ast` pass over the simulation sources enforcing DES
  discipline — seeded RNG streams only, no wall-clock reads, kernel
  events must be yielded, no ``==`` against simulated time.  Rule ids
  ``SL2xx``; suppress intentional findings with
  ``# simlint: ignore[RULE,...]`` (see :mod:`repro.check.pragmas`).
* **Layer 3 — flow analysis** (:mod:`repro.check.simflow`):
  per-function control-flow graphs (:mod:`repro.check.cfg`) and a
  project call graph drive a flow-sensitive abstract interpretation
  of the DES-kernel API — event/resource lifecycles, lock-order
  cycles, scheduling-in-the-past, starvation loops, and an
  interprocedural determinism-taint pass
  (:mod:`repro.check.taint`).  Rule ids ``SF3xx``.

All layers report :class:`Diagnostic` records and surface through
``repro check [--models] [--lint] [--flow] [--json] [--sarif FILE]
[--out FILE] [--strict]`` and the experiment registry's pre-flight
hook (``repro.experiments.run`` verifies an experiment's declared
models before running it).

See ``docs/static_analysis.md`` for the full rule catalog.
"""

from repro.check.diagnostics import (
    RULES,
    Diagnostic,
    ModelVerificationError,
    Rule,
    Severity,
    diagnostics_to_dict,
    diagnostics_to_json,
    format_diagnostic,
    has_errors,
    make_diagnostic,
    max_severity,
    rule,
)
from repro.check.model import (
    verify_application,
    verify_design,
    verify_mapping,
    verify_model,
    verify_platform,
    verify_task_graph,
)
from repro.check.repo import (
    builtin_model_checks,
    check_models,
    check_repository,
    default_lint_paths,
    repository_root,
)
from repro.check.sarif import to_sarif, to_sarif_json
from repro.check.simflow import analyze_paths, analyze_source
from repro.check.simlint import lint_paths, lint_source

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
    "verify_application",
    "verify_task_graph",
    "verify_platform",
    "verify_mapping",
    "verify_design",
    "verify_model",
    "lint_source",
    "lint_paths",
    "analyze_source",
    "analyze_paths",
    "to_sarif",
    "to_sarif_json",
    "builtin_model_checks",
    "check_models",
    "check_repository",
    "default_lint_paths",
    "repository_root",
]
