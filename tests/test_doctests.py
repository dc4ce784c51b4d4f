"""Run the doctests embedded in module/class docstrings.

The examples in docstrings are part of the public documentation; this
keeps them executable and honest.
"""

import doctest
import importlib

import pytest

MODULES_WITH_DOCTESTS = [
    "repro.des",
    "repro.des.events",
    "repro.des.monitor",
    "repro.des.resources",
    "repro.des.stores",
    "repro.utils.rng",
    "repro.utils.stats",
    "repro.utils.tables",
    "repro.core.application",
    "repro.core.architecture",
    "repro.core.mapping",
    "repro.core.power",
    "repro.analysis.ctmc",
    "repro.analysis.dtmc",
    "repro.analysis.stream_model",
    "repro.noc.mapping",
    "repro.noc.routing",
    "repro.noc.topology",
    "repro.streams.pipeline",
    "repro.streams.sync",
    "repro.traffic.fgn",
    "repro.wireless.channel",
    "repro.wireless.packet_channel",
    "repro.asip.retarget",
    "repro.ambient.users",
]


@pytest.mark.parametrize("module_name", MODULES_WITH_DOCTESTS)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module_name}"
    )
    # Every module in the list must actually carry examples; if one
    # loses them, drop it from the list explicitly.
    assert results.attempted > 0, f"{module_name} has no doctests"
