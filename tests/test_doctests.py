"""Run the doctest examples embedded in the library's docstrings."""

import doctest

import pytest

import repro.bench.report
import repro.cachesim.cache
import repro.core.poptrie
import repro.core.update
import repro.errors
import repro.mem.buddy
import repro.mem.layout
import repro.net.values
import repro.net.ip
import repro.net.prefix
import repro.net.rib
import repro.obs
import repro.robust.faults
import repro.robust.journal
import repro.robust.txn
import repro.router.forwarding
import repro.server.handle

MODULES = [
    repro.obs,
    repro.errors,
    repro.net.ip,
    repro.net.prefix,
    repro.net.values,
    repro.net.rib,
    repro.mem.buddy,
    repro.mem.layout,
    repro.core.poptrie,
    repro.core.update,
    repro.robust.faults,
    repro.robust.journal,
    repro.robust.txn,
    repro.cachesim.cache,
    repro.bench.report,
    repro.router.forwarding,
    repro.server.handle,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, optionflags=doctest.ELLIPSIS)
    assert results.failed == 0, f"{results.failed} doctest failures"
    # Modules listed here are expected to actually carry examples.
    assert results.attempted > 0, "no doctests found"
