"""Suppression pragmas of the source pass.

The Layer-2 lint (``SL2xx``) and the Layer-3 flow analyzer (``SF3xx``)
run as one source pass, and one inline grammar suppresses findings of
either family::

    t0 = time.time()  # simlint: ignore[SL202]
    req = res.request()  # simlint: ignore[SL203, SF303]  -- teardown path
    # simlint: ignore[SF307]   <- also honored on the line directly above
    env.timeout(jitter)

A bare ``# simlint: ignore`` suppresses every rule on that line, and
``# simlint: skip-file`` anywhere exempts the whole file.

The repository convention (enforced by the strict CI gate's review
rules, not by this parser) is that every pragma carries a short
justification after the bracket, as in the second example above.
"""

from __future__ import annotations

import re

from repro.check.diagnostics import Diagnostic

__all__ = [
    "Pragmas",
    "collect_pragmas",
    "filter_suppressed",
]

_PRAGMA_RE = re.compile(
    r"#\s*simlint:\s*ignore"
    r"(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
)
_SKIP_FILE_RE = re.compile(r"#\s*simlint:\s*skip-file")


class Pragmas:
    """Parsed suppressions of one source file.

    Attributes
    ----------
    skip_file:
        ``True`` when the file opts out of the source pass entirely.
    by_line:
        Line number → set of suppressed rule ids (``None`` = every
        rule, from a bare ``ignore``).
    """

    __slots__ = ("skip_file", "by_line")

    def __init__(self, skip_file: bool,
                 by_line: dict[int, set[str] | None]):
        self.skip_file = skip_file
        self.by_line = by_line

    def suppresses(self, rule_id: str, line: int | None) -> bool:
        """True when ``rule_id`` at ``line`` is pragma-suppressed.

        A pragma applies to its own line and to the line directly
        below it (i.e. findings look one line *up* as well), matching
        the historical simlint contract.
        """
        if self.skip_file:
            return True
        if line is None:
            return False
        for lineno in (line, line - 1):
            if lineno not in self.by_line:
                continue
            rules = self.by_line[lineno]
            if rules is None or rule_id in rules:
                return True
        return False


def collect_pragmas(source: str) -> Pragmas:
    """Parse every suppression pragma out of ``source``."""
    by_line: dict[int, set[str] | None] = {}
    skip_file = False
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "simlint" not in line:
            continue
        if _SKIP_FILE_RE.search(line):
            skip_file = True
        for match in _PRAGMA_RE.finditer(line):
            rules = match.group("rules")
            if rules is None:
                by_line[lineno] = None
                continue
            ids = {r.strip() for r in rules.split(",") if r.strip()}
            previous = by_line.get(lineno)
            if previous is None and lineno in by_line:
                continue  # bare ignore already covers everything
            by_line[lineno] = (ids if previous is None
                               else previous | ids)
    return Pragmas(skip_file, by_line)


def filter_suppressed(
    diagnostics: list[Diagnostic], pragmas: Pragmas
) -> list[Diagnostic]:
    """Drop every pragma-suppressed finding."""
    return [d for d in diagnostics
            if not pragmas.suppresses(d.rule, d.line)]
