"""Parsing for the source pass.

The Layer-2 lint (:mod:`repro.check.simlint`) and the Layer-3 flow
analyzer (:mod:`repro.check.simflow`) walk the same Python sources,
and parsing dominates the cost of both.  The source pass
(:mod:`repro.check.repo`) therefore parses each file once and hands
the same tree to every rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

__all__ = ["ParsedFile", "parse_source", "parse_paths"]


@dataclass
class ParsedFile:
    """One parsed source file.

    Attributes
    ----------
    path:
        Filesystem path (``"<string>"`` for in-memory sources).
    source:
        The file text.
    tree:
        Parsed module, or ``None`` when the file has a syntax error.
    error:
        The :class:`SyntaxError` when parsing failed.
    """

    path: str
    source: str
    tree: ast.Module | None
    error: SyntaxError | None = None


def parse_source(source: str, path: str = "<string>") -> ParsedFile:
    """Parse ``source``; a syntax error is recorded, not raised."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return ParsedFile(path, source, None, error=exc)
    return ParsedFile(path, source, tree)


def parse_paths(
    paths: Iterable[str | Path], root: str | Path | None = None
) -> list[tuple[str, ParsedFile]]:
    """Parse files and directories (recursing into ``*.py``).

    Returns ``(label, parsed)`` pairs in a stable order.  ``root``,
    when given, makes each label relative to it, so diagnostic
    subjects do not depend on where the tree is checked out.
    """
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        else:
            files.append(entry)
    parsed: list[tuple[str, ParsedFile]] = []
    for file in files:
        label = file
        if root is not None:
            try:
                label = file.relative_to(root)
            except ValueError:
                label = file
        source = file.read_text(encoding="utf-8")
        parsed.append((str(label), parse_source(source, str(file))))
    return parsed
