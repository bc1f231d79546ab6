"""Tests for the SAIL_L baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import boundary_keys, make_random_rib, random_keys

from repro.errors import StructuralLimitError
from repro.lookup.sail import _CHUNK_FLAG, Sail
from repro.mem.layout import AccessTrace
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE


def rib_of(*routes):
    rib = Rib()
    for text, hop in routes:
        rib.insert(Prefix.parse(text), hop)
    return rib


class TestBasics:
    def test_level16_hit(self):
        sail = Sail.from_rib(rib_of(("10.0.0.0/8", 1)))
        assert sail.lookup(Prefix.parse("10.1.1.1/32").value) == 1
        assert len(sail.bcn24) == 0  # no deeper prefixes, no chunks

    def test_level24_hit(self):
        sail = Sail.from_rib(rib_of(("10.0.0.0/8", 1), ("10.0.1.0/24", 2)))
        assert sail.lookup(Prefix.parse("10.0.1.7/32").value) == 2
        assert sail.lookup(Prefix.parse("10.0.2.7/32").value) == 1

    def test_level32_hit(self):
        sail = Sail.from_rib(rib_of(("10.0.0.0/24", 1), ("10.0.0.128/25", 2)))
        assert sail.lookup(Prefix.parse("10.0.0.200/32").value) == 2
        assert sail.lookup(Prefix.parse("10.0.0.100/32").value) == 1
        assert len(sail.n32) == 256

    def test_miss(self):
        sail = Sail.from_rib(rib_of(("10.0.0.0/8", 1)))
        assert sail.lookup(Prefix.parse("11.0.0.0/32").value) == NO_ROUTE

    def test_chunk_ids_are_one_based(self):
        sail = Sail.from_rib(rib_of(("10.0.1.0/24", 2)))
        entry = sail.bcn16[0x0A00]
        assert entry & _CHUNK_FLAG
        assert (entry & (_CHUNK_FLAG - 1)) == 1

    def test_rejects_ipv6(self):
        rib = Rib(width=128)
        rib.insert(Prefix.parse("2001:db8::/32"), 1)
        with pytest.raises(ValueError):
            Sail.from_rib(rib)


class TestEquivalence:
    def test_against_rib(self, bgp_rib):
        sail = Sail.from_rib(bgp_rib)
        for key in boundary_keys(bgp_rib)[:4000] + random_keys(3000, seed=6):
            assert sail.lookup(key) == bgp_rib.lookup(key)

    def test_batch_matches_scalar(self, bgp_rib):
        sail = Sail.from_rib(bgp_rib)
        keys = np.array(random_keys(20_000, seed=7), dtype=np.uint64)
        batch = sail.lookup_batch(keys)
        for i in range(0, len(keys), 113):
            assert batch[i] == sail.lookup(int(keys[i]))

    def test_traced_matches_plain(self, bgp_rib):
        sail = Sail.from_rib(bgp_rib)
        trace = AccessTrace()
        for key in random_keys(400, seed=8):
            trace.reset()
            assert sail.lookup_traced(key, trace) == sail.lookup(key)

    def test_trace_access_count_tracks_level(self):
        sail = Sail.from_rib(rib_of(("10.0.0.0/24", 1), ("10.0.0.128/25", 2)))
        trace = AccessTrace()
        sail.lookup_traced(Prefix.parse("10.0.0.200/32").value, trace)
        assert len(trace.accesses) == 3  # levels 16, 24, 32
        trace.reset()
        sail.lookup_traced(Prefix.parse("11.0.0.0/32").value, trace)
        assert len(trace.accesses) == 1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_tables(self, seed):
        rib = make_random_rib(80, seed=seed, width=32, max_nexthop=12)
        sail = Sail.from_rib(rib)
        for key in boundary_keys(rib):
            assert sail.lookup(key) == rib.lookup(key)


class TestStructuralLimits:
    def test_chunk_identifier_limit(self, monkeypatch):
        import repro.lookup.sail as sail_module

        monkeypatch.setattr(sail_module, "MAX_CHUNKS", 3)
        rib = rib_of(
            ("10.0.1.0/24", 1), ("10.1.1.0/24", 2), ("10.2.1.0/24", 3)
        )
        with pytest.raises(StructuralLimitError):
            Sail.from_rib(rib)

    def test_nexthop_width_limit(self):
        rib = rib_of(("10.0.0.0/8", 40_000))
        with pytest.raises(StructuralLimitError):
            Sail.from_rib(rib)


class TestMemory:
    def test_footprint_formula(self, bgp_rib):
        sail = Sail.from_rib(bgp_rib)
        expected = 2 * (len(sail.bcn16) + len(sail.bcn24) + len(sail.n32))
        assert sail.memory_bytes() == expected

    def test_chunked_levels_scale_with_deep_prefixes(self):
        shallow = Sail.from_rib(rib_of(("10.0.0.0/8", 1)))
        deep = Sail.from_rib(
            rib_of(("10.0.0.0/8", 1), ("10.0.1.0/24", 2), ("11.0.1.0/24", 3))
        )
        assert deep.memory_bytes() > shallow.memory_bytes()
