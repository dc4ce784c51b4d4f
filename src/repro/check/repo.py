"""The entry points of ``repro check``.

:func:`check_repository` is what ``repro check`` and CI run: the
Layer-1 model verifier over every model the repository ships (the
experiment registry's ``scenario=`` hooks plus the built-in catalog
below) and the source pass over ``src/``, ``benchmarks/`` and
``examples/``.  :func:`check_source` runs the source pass over one
in-memory file.

The source pass parses each file once
(:func:`repro.check.parse.parse_paths`), runs every Layer-2
(:mod:`repro.check.simlint`) and Layer-3 (:mod:`repro.check.simflow`)
rule over the parsed trees, reports ``SL200`` for a file that does
not parse, and applies each file's ``# simlint:`` pragmas
(:mod:`repro.check.pragmas`) once.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.check.diagnostics import Diagnostic, make_diagnostic
from repro.check.model import verify_model
from repro.check.parse import ParsedFile, parse_paths, parse_source
from repro.check.pragmas import Pragmas, collect_pragmas, \
    filter_suppressed
from repro.check.simflow import analyze_trees
from repro.check.simlint import lint_tree

__all__ = [
    "repository_root",
    "default_lint_paths",
    "builtin_model_checks",
    "check_models",
    "check_source",
    "check_repository",
]

#: Directories (relative to the repository root) the source pass
#: covers.
LINT_DIRS = ("src", "benchmarks", "examples")


def repository_root() -> Path:
    """Best-effort repository root: the parent of ``src/``."""
    # .../src/repro/check/repo.py -> parents[3] is the repo root.
    return Path(__file__).resolve().parents[3]


def default_lint_paths(root: Path | None = None) -> list[Path]:
    """The source trees ``repro check`` covers by default."""
    root = repository_root() if root is None else Path(root)
    return [root / d for d in LINT_DIRS if (root / d).is_dir()]


def builtin_model_checks() -> list[tuple[str, object]]:
    """Models the repository itself ships, as ``(name, model)`` pairs.

    Covers the NoC application characterization graphs and a reference
    holistic design assembled from the core primitives (the
    ``examples/quickstart.py`` shape), so ``repro check --models``
    exercises every Layer-1 rule family even before experiments
    register their own providers.
    """
    from repro.core import (
        ApplicationGraph,
        ChannelSpec,
        Mapping,
        Platform,
        ProcessingElement,
        ProcessNode,
        QoSSpec,
    )
    from repro.core.architecture import PEKind
    from repro.noc import mms_apcg, video_surveillance_apcg

    checks: list[tuple[str, object]] = [
        ("noc:video-surveillance", video_surveillance_apcg()),
        ("noc:mms", mms_apcg()),
    ]

    app = ApplicationGraph("reference-pipeline")
    app.add_process(ProcessNode("camera", 0.0, rate_hz=25.0))
    app.add_process(ProcessNode("encoder", 4.0e6, cycles_cv=0.4))
    app.add_process(ProcessNode("packetizer", 0.2e6))
    app.add_channel(ChannelSpec("camera", "encoder",
                                bits_per_token=2.0e6))
    app.add_channel(ChannelSpec("encoder", "packetizer",
                                bits_per_token=0.5e6))
    platform = Platform("reference-platform")
    platform.add_pe(ProcessingElement("cpu0", PEKind.GPP,
                                      frequency=400e6))
    platform.add_pe(ProcessingElement("dsp0", PEKind.DSP,
                                      frequency=300e6))
    mapping = Mapping({"camera": "cpu0", "encoder": "dsp0",
                       "packetizer": "cpu0"})
    checks.append((
        "core:reference-design",
        {
            "application": app,
            "platform": platform,
            "mapping": mapping,
            "qos": QoSSpec(max_latency=0.5, max_loss_rate=0.05),
        },
    ))
    return checks


def check_models() -> list[Diagnostic]:
    """Run the Layer-1 verifier over every registered model."""
    from repro import experiments

    diagnostics: list[Diagnostic] = []
    for name, model in builtin_model_checks():
        for diag in verify_model(model):
            diag.subject = f"{name}/{diag.subject}"
            diagnostics.append(diag)
    for exp_id in experiments.ids():
        diagnostics.extend(experiments.preflight(exp_id))
    return diagnostics


def _check_parsed(
    files: list[tuple[str, ParsedFile]],
) -> list[Diagnostic]:
    """The source pass over ``files``: every SL and SF rule, then one
    pragma filter per file."""
    diagnostics: list[Diagnostic] = []
    pragmas: dict[str, Pragmas] = {}
    findings: dict[str, list[Diagnostic]] = {}
    trees: list[tuple[str, ast.Module]] = []
    for label, parsed in files:
        file_pragmas = collect_pragmas(parsed.source)
        if file_pragmas.skip_file:
            continue
        if parsed.tree is None:
            diagnostics.append(make_diagnostic(
                "SL200", f"file does not parse: {parsed.error.msg}",
                label, line=parsed.error.lineno))
            continue
        pragmas[label] = file_pragmas
        findings[label] = lint_tree(parsed.tree, label)
        trees.append((label, parsed.tree))
    for diag in analyze_trees(trees):
        findings[diag.subject].append(diag)
    for label, file_pragmas in pragmas.items():
        diagnostics.extend(filter_suppressed(findings[label],
                                             file_pragmas))
    return diagnostics


def check_source(
    source: str, path: str = "<string>"
) -> list[Diagnostic]:
    """Run the source pass over in-memory ``source``; ``path`` labels
    the diagnostics."""
    return _check_parsed([(path, parse_source(source, path))])


def check_repository(
    root: Path | str | None = None,
    models: bool = True,
    paths: Iterable[str | Path] | None = None,
) -> list[Diagnostic]:
    """Run the model verifier and the source pass; return every
    finding.

    Parameters
    ----------
    root:
        Repository root; defaults to the tree this package lives in.
        Diagnostic subjects are relative to it.
    models:
        Whether to run the Layer-1 model verifier.
    paths:
        Files/directories for the source pass (defaults to
        :data:`LINT_DIRS` under ``root``; an empty list skips it).
    """
    root = repository_root() if root is None else Path(root)
    diagnostics = check_models() if models else []
    targets = default_lint_paths(root) if paths is None else paths
    diagnostics.extend(_check_parsed(parse_paths(targets, root)))
    return diagnostics
