"""Public-API audit: every package declares what it exports, and every
declared export resolves.  Guards against silently widening (or
breaking) the surface that ``docs/`` and downstream code rely on."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = sorted(repro._SUBPACKAGES)


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_top_level_covers_every_subpackage():
    found = {
        module.name
        for module in pkgutil.iter_modules(repro.__path__)
        if module.ispkg
    }
    assert found <= set(repro.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.no_such_subsystem


def test_run_shortcut_is_the_experiment_api():
    from repro.experiments import run

    assert repro.run is run


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_declares_all(name):
    module = importlib.import_module(f"repro.{name}")
    assert hasattr(module, "__all__"), f"repro.{name} lacks __all__"
    assert module.__all__, f"repro.{name}.__all__ is empty"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_all_resolves(name):
    module = importlib.import_module(f"repro.{name}")
    for export in module.__all__:
        assert getattr(module, export, None) is not None, (
            f"repro.{name}.__all__ lists {export!r} but it does not "
            f"resolve"
        )


_STARTUP_PROBE = f"""
import sys
from repro import experiments
experiments.ids()
print("scipy" in sys.modules)
for name in {SUBPACKAGES!r}:
    __import__("repro." + name)
print("scipy.stats" in sys.modules)
experiments.run("f1")
print("scipy.sparse" in sys.modules)
"""


def _fresh_interpreter(probe: str) -> list[str]:
    """Whitespace-split stdout of ``probe`` run in a new interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_startup_imports_no_scipy_stats():
    """Start-up stays numpy-only: the registry path loads no scipy at
    all, and no ``repro`` package -- the CLI and everything perfbench
    preloads included -- loads ``scipy.stats`` (about 0.8 s of
    imports).  A run whose Markov chains are all small (f1) loads no
    ``scipy.sparse`` either: only a chain of ``SPARSE_STATES`` states
    or more imports it.  Checked in a fresh interpreter."""
    assert _fresh_interpreter(_STARTUP_PROBE) == [
        "False", "False", "False"]


_RUN_PROBE = """
import sys
from repro import experiments
experiments.run("e9")
print("networkx" in sys.modules)
"""


def test_single_run_imports_no_networkx():
    """networkx is a test-only oracle: running an experiment -- e9's
    MANET routing, with the default model pre-flight (``verify=True``)
    over process and task graphs -- never imports it."""
    assert _fresh_interpreter(_RUN_PROBE) == ["False"]


#: Fault-injection and fan-out names that no experiment, example or
#: CLI path ever called; they were deleted and must stay gone.
_UNREACHED = {
    "resilience": [
        "with_timeout", "retry_with_backoff", "Watchdog",
        "CircuitBreaker", "PolicyError", "DeadlineExceeded",
        "RetryBudgetExceeded", "CircuitOpen", "WatchdogTimeout",
        "ProcessKill", "BreakableResource", "BreakableStore",
        "BreakablePE", "BreakableLink", "CallbackBreakable",
        "all_down_intervals", "any_up_fraction", "ambient_qos",
    ],
    "streams": ["FailoverChannel"],
    "ambient": ["live_redundancy_study", "LiveRedundancyResult"],
    "parallel": ["parallel_map", "ParallelItemError"],
    "noc": ["parallel_annealing_mapping"],
}


@pytest.mark.parametrize("name", sorted(_UNREACHED))
def test_unreached_surface_stays_deleted(name):
    module = importlib.import_module(f"repro.{name}")
    for gone in _UNREACHED[name]:
        assert gone not in module.__all__
        assert not hasattr(module, gone), f"repro.{name}.{gone}"


def test_fault_targets_keep_only_the_reached_hooks():
    from importlib.util import find_spec

    from repro.des import FiniteQueue, Resource, Store
    from repro.resilience import FailureModel, FaultInjector

    assert find_spec("repro.resilience.policies") is None
    for gone in ("weibull", "crash", "transient", "steady_availability",
                 "shape"):
        assert not hasattr(FailureModel, gone), gone
    for gone in ("down", "downtime", "availability", "stop"):
        assert not hasattr(FaultInjector, gone), gone
    for kernel_class in (Resource, Store, FiniteQueue):
        assert not hasattr(kernel_class, "set_out_of_service")
