"""Session-wide fixtures.

The full repository check (all three layers over ``src/``,
``benchmarks/`` and ``examples/``) takes seconds, so the suite runs it
once and every test that asserts on the whole tree shares the result.
"""

import time
from typing import NamedTuple

import pytest


class RepositoryScan(NamedTuple):
    diagnostics: tuple
    wall_s: float


@pytest.fixture(scope="session")
def repository_scan():
    """One timed ``check_repository()`` run with all three layers."""
    from repro.check import check_repository

    t0 = time.perf_counter()
    diagnostics = check_repository()
    return RepositoryScan(tuple(diagnostics), time.perf_counter() - t0)


@pytest.fixture
def shared_check_repository(monkeypatch, repository_scan):
    """Serve ``repro.check.check_repository`` from the session scan.

    For CLI tests over the whole tree.  The stub returns the findings
    of the requested layers; the returned list records the layer flags
    of every call so the test can assert on them.
    """
    import repro.check

    calls = []

    def stub(root=None, models=True, lint=True, flow=True,
             lint_targets=None):
        assert root is None and lint_targets is None
        calls.append({"models": models, "lint": lint, "flow": flow})
        wanted = {"RC": models, "SL": lint, "SF": flow}
        return [d for d in repository_scan.diagnostics
                if wanted[d.rule[:2]]]

    monkeypatch.setattr(repro.check, "check_repository", stub)
    return calls
