"""Repository-level static analysis: one call checks everything.

:func:`check_repository` is what ``repro check`` and CI run: the
Layer-1 model verifier over every model the repository ships (the
experiment registry's ``scenario=`` hooks plus the built-in catalog
below), the Layer-2 simulation lint, and the Layer-3 flow analyzer
(:mod:`repro.check.simflow`), both over ``src/``, ``benchmarks/``,
and ``examples/``.  The two AST passes share one parse of each file
(:func:`repro.check.parse.parse_paths`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.check.diagnostics import Diagnostic
from repro.check.model import verify_model
from repro.check.parse import parse_paths
from repro.check.simflow import _analyze_parsed
from repro.check.simlint import _lint_parsed

__all__ = [
    "repository_root",
    "default_lint_paths",
    "builtin_model_checks",
    "check_models",
    "check_repository",
]

#: Directories (relative to the repository root) the lint and flow
#: passes cover.
LINT_DIRS = ("src", "benchmarks", "examples")


def repository_root() -> Path:
    """Best-effort repository root: the parent of ``src/``."""
    # .../src/repro/check/repo.py -> parents[3] is the repo root.
    return Path(__file__).resolve().parents[3]


def default_lint_paths(root: Path | None = None) -> list[Path]:
    """The source trees ``repro check --lint`` covers by default."""
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


def check_models(
    include_experiments: bool = True,
) -> list[Diagnostic]:
    """Run the Layer-1 verifier over every registered model."""
    diagnostics: list[Diagnostic] = []
    for name, model in builtin_model_checks():
        for diag in verify_model(model):
            diag.subject = f"{name}/{diag.subject}"
            diagnostics.append(diag)
    if include_experiments:
        from repro import experiments

        for exp_id in experiments.ids():
            diagnostics.extend(experiments.preflight(exp_id))
    return diagnostics


def check_repository(
    root: Path | str | None = None,
    models: bool = True,
    lint: bool = True,
    flow: bool = True,
    lint_targets: Iterable[str | Path] | None = None,
) -> list[Diagnostic]:
    """Run the requested layers and return every finding.

    Parameters
    ----------
    root:
        Repository root; defaults to the tree this package lives in.
    models, lint, flow:
        Which layers to run (Layer-1 verifier, Layer-2 lint, Layer-3
        flow analysis).
    lint_targets:
        Explicit files/directories for the lint and flow passes
        (defaults to :data:`LINT_DIRS` under ``root``).
    """
    root = repository_root() if root is None else Path(root)
    diagnostics: list[Diagnostic] = []
    if models:
        diagnostics.extend(check_models())
    if not (lint or flow):
        return diagnostics
    targets = (list(lint_targets) if lint_targets is not None
               else default_lint_paths(root))
    parsed = parse_paths(targets, root)
    if lint:
        for label, parsed_file in parsed:
            diagnostics.extend(_lint_parsed(parsed_file, label))
    if flow:
        diagnostics.extend(_analyze_parsed(parsed))
    return diagnostics
