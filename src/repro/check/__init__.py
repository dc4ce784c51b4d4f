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
* **Layer 2 — simulation lint** (:mod:`repro.check.simlint`):
  statement-local DES discipline — seeded RNG streams only, no
  wall-clock reads, kernel events must be yielded, no ``==`` against
  simulated time.  Rule ids ``SL2xx``.
* **Layer 3 — flow analysis** (:mod:`repro.check.simflow`):
  per-function control-flow graphs (:mod:`repro.check.cfg`) and a
  project call graph drive a flow-sensitive abstract interpretation
  of the DES-kernel API — event/resource lifecycles, lock-order
  cycles, starvation loops, and an interprocedural determinism-taint
  pass (:mod:`repro.check.taint`).  Rule ids ``SF3xx``.

Layers 2 and 3 run as one source pass (:mod:`repro.check.repo`): each
file is parsed once, every SL and SF rule runs over the tree, and the
file's ``# simlint: ignore[RULE,...]`` pragmas
(:mod:`repro.check.pragmas`) are applied once.

All layers report :class:`Diagnostic` records and surface through
``repro check [PATHS] [--models] [--json] [--out FILE] [--strict]``,
:func:`check_source` and :func:`check_repository`, and the experiment
registry's pre-flight hook (``repro.experiments.run`` verifies an
experiment's declared models before running it).

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
    check_source,
    default_lint_paths,
    repository_root,
)

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
    "builtin_model_checks",
    "check_models",
    "check_source",
    "check_repository",
    "default_lint_paths",
    "repository_root",
]
