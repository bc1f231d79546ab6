"""Registry-wide conformance of the ``apply_updates`` surface.

Every registry engine — incremental Poptrie surgery and rebuild
fallbacks alike — must converge to the same table after the same update
stream: fingerprint-identical lookup results against a structure built
fresh from the mutated RIB.  The suite also pins the capability
accounting (``engine`` report field, ``stats()["update_engine"]``,
rejected-update counting) that the churn harness and the CLI rely on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.poptrie import Poptrie
from repro.data.synth import generate_table
from repro.data.traffic import random_addresses
from repro.data.updates import Update, generate_stream
from repro.errors import UpdateRejectedError
from repro.lookup import registry
from repro.net.prefix import Prefix

N_ROUTES = 300
N_UPDATES = 500
SEED = 31


@pytest.fixture(scope="module")
def probe_keys():
    return [int(k) for k in random_addresses(4096, seed=SEED)]


def _fresh_rib():
    rib, _ = generate_table(n_prefixes=N_ROUTES, n_nexthops=8, seed=SEED)
    return rib


@pytest.mark.parametrize("name", sorted(registry.available()))
def test_apply_updates_converges_to_rebuilt_table(name, probe_keys):
    """After a 500-update stream the updated structure answers exactly
    like a structure compiled from scratch off the mutated RIB."""
    entry = registry.get(name)
    rib = _fresh_rib()
    structure = entry.from_rib(rib)
    updates = generate_stream(rib, count=N_UPDATES, seed=SEED)

    report = structure.apply_updates(updates)
    assert report["applied"] + report["rejected"] == N_UPDATES
    assert report["applied"] > 0
    expected_engine = (
        "incremental" if entry.supports_incremental else "rebuild"
    )
    assert report["engine"] == expected_engine
    assert structure.stats()["update_engine"] == expected_engine
    assert structure.stats()["updates_applied"] == report["applied"]

    reference = entry.from_rib(structure.rib)
    got = structure.lookup_batch(probe_keys)
    want = reference.lookup_batch(probe_keys)
    mismatches = int((np.asarray(got) != np.asarray(want)).sum())
    assert mismatches == 0, (
        f"{name}: {mismatches}/{len(probe_keys)} lookups diverge from a "
        "fresh build of the updated RIB"
    )


@pytest.mark.parametrize("name", sorted(registry.available()))
def test_apply_updates_counts_rejections(name):
    """Withdrawing an absent prefix is rejected and counted, and the
    rest of the batch still lands."""
    entry = registry.get(name)
    rib = _fresh_rib()
    structure = entry.from_rib(rib)
    from repro.net.values import NO_ROUTE

    absent = Prefix.parse("203.0.113.0/27")
    assert rib.get(absent) == NO_ROUTE
    live = Prefix.parse("198.51.100.0/24")
    report = structure.apply_updates(
        [Update("W", absent), Update("A", live, 3)]
    )
    assert report["rejected"] == 1
    assert report["applied"] == 1
    assert structure.lookup(live.value) == structure.rib.lookup(
        live.value
    )


def test_apply_updates_requires_a_bound_rib():
    """A structure built outside the registry has no RIB binding and
    must refuse updates instead of silently dropping them."""
    rib = _fresh_rib()
    trie = Poptrie.from_rib(rib)
    with pytest.raises(UpdateRejectedError):
        trie.apply_updates([Update("A", Prefix.parse("10.0.0.0/8"), 1)])
    assert trie.bind_rib(rib) is trie
    report = trie.apply_updates(
        [Update("A", Prefix.parse("10.128.0.0/9"), 2)]
    )
    assert report["applied"] == 1
    assert trie.lookup(Prefix.parse("10.128.0.1/32").value) == 2


def test_incremental_engines_keep_identity_across_updates():
    """Incremental engines mutate in place: the object served behind a
    TableHandle keeps answering with fresh routes without a swap."""
    entry = registry.get("Poptrie18")
    assert entry.supports_incremental
    rib = _fresh_rib()
    structure = entry.from_rib(rib)
    before = id(structure)
    structure.apply_updates(generate_stream(rib, count=64, seed=SEED))
    assert id(structure) == before
    keys = [int(k) for k in random_addresses(300, seed=SEED)]
    assert structure.verify_against(rib, keys) == []


@pytest.mark.parametrize("name", ["SAIL", "Radix"])
def test_failed_rebuild_refuses_the_batch_and_keeps_the_table(
    name, probe_keys
):
    """A rebuild that hits a structural limit after valid updates undoes
    the batch's RIB mutations, keeps serving the old table and refuses
    every update at its position; the next batch applies normally."""
    from repro.errors import StructuralLimitError

    entry = registry.get(name)
    rib = _fresh_rib()
    structure = entry.from_rib(rib)
    failures = []

    def flaky_rebuild(r):
        if not failures:
            failures.append(r)
            raise StructuralLimitError("more than 2^15 second-level chunks")
        return entry.from_rib(r)

    structure.bind_rib(rib, rebuild=flaky_rebuild)
    routes = sorted(rib.routes())
    before = structure.lookup_batch(probe_keys)
    updates = generate_stream(rib, count=16, seed=SEED)
    report = structure.apply_updates(updates)
    assert failures
    assert (report["applied"], report["rejected"]) == (0, 16)
    assert [position for position, _ in report["errors"]] == list(range(1, 17))
    assert all("StructuralLimitError" in text for _, text in report["errors"])
    assert sorted(rib.routes()) == routes
    assert np.array_equal(structure.lookup_batch(probe_keys), before)

    report = structure.apply_updates(updates)
    assert (report["applied"], report["rejected"]) == (16, 0)
    reference = entry.from_rib(rib)
    assert np.array_equal(
        structure.lookup_batch(probe_keys), reference.lookup_batch(probe_keys)
    )
