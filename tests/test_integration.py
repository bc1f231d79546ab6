"""Integration tests: cross-algorithm agreement and end-to-end flows.

The paper validated its implementations "by comparing all lookup results
of all algorithms for each address of the whole IPv4 space" (Section 4).
At Python speed we do the same on scaled datasets with exhaustive checks
over small universes plus boundary/random sampling at realistic sizes.
"""

import numpy as np
import pytest

from tests.conftest import boundary_keys, random_keys

from repro.lookup.registry import standard_roster
from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.data.datasets import load_dataset, load_dataset_v6
from repro.data.traffic import random_addresses, real_trace, repeated_addresses
from repro.data.updates import generate_update_stream
from repro.lookup.dxr import Dxr
from repro.net.rib import Rib
from repro.robust.txn import TransactionalPoptrie


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("REAL-RENET", scale=0.01)


class TestCrossAlgorithmAgreement:
    def test_all_structures_agree_on_dataset(self, dataset):
        roster = standard_roster(dataset.rib)
        keys = boundary_keys(dataset.rib)[:8000] + random_keys(4000, seed=41)
        reference = dataset.rib
        for name, structure in roster.items():
            assert structure is not None, name
            mismatches = structure.verify_against(reference, keys)
            assert mismatches == [], f"{name}: {len(mismatches)} mismatches"

    def test_batch_engines_agree_with_rib(self, dataset):
        roster = standard_roster(dataset.rib)
        keys = random_addresses(5000, seed=7)
        expected = np.array(
            [dataset.rib.lookup(int(k)) for k in keys], dtype=np.uint32
        )
        for name, structure in roster.items():
            got = structure.lookup_batch(keys)
            assert (got == expected).all(), name

    @pytest.mark.parametrize(
        "name", ["RV-linx-p46", "RV-saopaulo-p2", "REAL-Tier1-B"]
    )
    def test_multiple_datasets(self, name):
        ds = load_dataset(name, scale=0.005)
        roster = standard_roster(ds.rib, names=("SAIL", "D18R", "Poptrie18"))
        keys = random_keys(2500, seed=hash(name) % 1000)
        for structure_name, structure in roster.items():
            assert structure is not None
            assert structure.verify_against(ds.rib, keys) == [], structure_name


class TestTrafficPatternsEndToEnd:
    def test_repeated_and_trace_patterns(self, dataset):
        trie = Poptrie.from_rib(dataset.rib, PoptrieConfig(s=16))
        for keys in (
            repeated_addresses(2000, seed=3),
            real_trace(dataset.rib, 2000, seed=4),
        ):
            for key in keys[:500]:
                assert trie.lookup(int(key)) == dataset.rib.lookup(int(key))


class TestIPv6EndToEnd:
    def test_poptrie_and_dxr_agree(self):
        ds = load_dataset_v6(scale=0.05)
        trie = Poptrie.from_rib(ds.rib, PoptrieConfig(s=16))
        dxr = Dxr.from_rib(ds.rib, s=16, modified=True)
        from repro.data.traffic import random_addresses_v6

        for key in random_addresses_v6(1500, seed=5):
            expected = ds.rib.lookup(key)
            assert trie.lookup(key) == expected
            assert dxr.lookup(key) == expected


class TestUpdateFlowEndToEnd:
    def test_stream_replay_keeps_all_structures_consistent(self, dataset):
        rib = Rib()
        for prefix, hop in dataset.rib.routes():
            rib.insert(prefix, hop)
        up = TransactionalPoptrie(PoptrieConfig(s=16), rib=rib)
        stream = generate_update_stream(dataset.rib, 300, seed=6)
        up.apply_stream(stream)
        # After the churn, the incremental structure equals a rebuild.
        rebuilt = Poptrie.from_rib(up.rib, up.trie.config)
        for key in random_keys(3000, seed=7):
            assert up.lookup(key) == rebuilt.lookup(key) == up.rib.lookup(key)


class TestCycleModelEndToEnd:
    def test_traced_cycles_for_whole_roster(self, dataset):
        from repro.cachesim import CycleModel, HASWELL_I7_4770K

        roster = standard_roster(dataset.rib, names=("SAIL", "D18R", "Poptrie18"))
        keys = random_keys(3000, seed=8)
        means = {}
        for name, structure in roster.items():
            model = CycleModel(HASWELL_I7_4770K)
            cycles = model.measure(structure, keys, warmup=1000)
            means[name] = cycles.mean()
        # All means are plausible CPU-cycle magnitudes.
        assert all(5 < mean < 500 for mean in means.values()), means
