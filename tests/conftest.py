"""Session-wide fixtures.

The full repository check (the model verifier plus the source pass
over ``src/``, ``benchmarks/`` and ``examples/``) takes seconds, so
the suite runs it once and every test that asserts on the whole tree
shares the result.
"""

import time
from typing import NamedTuple

import pytest


class RepositoryScan(NamedTuple):
    diagnostics: tuple
    wall_s: float


@pytest.fixture(scope="session")
def repository_scan():
    """One timed ``check_repository()`` run over the whole tree."""
    from repro.check import check_repository

    t0 = time.perf_counter()
    diagnostics = check_repository()
    return RepositoryScan(tuple(diagnostics), time.perf_counter() - t0)


@pytest.fixture
def shared_check_repository(monkeypatch, repository_scan):
    """Serve ``repro.check.check_repository`` from the session scan.

    For CLI tests over the whole tree.  The stub serves calls that
    run the source pass over the default paths, with or without the
    model verifier; the returned list records the arguments of every
    call so the test can assert on them.
    """
    import repro.check

    calls = []

    def stub(root=None, models=True, paths=None):
        assert root is None and paths is None
        calls.append({"models": models, "paths": paths})
        return [d for d in repository_scan.diagnostics
                if models or not d.rule.startswith("RC")]

    monkeypatch.setattr(repro.check, "check_repository", stub)
    return calls
