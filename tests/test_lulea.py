"""Tests for the Lulea compressed trie."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import boundary_keys, make_random_rib, random_keys

from repro.errors import StructuralLimitError
from repro.lookup.lulea import Lulea, _Level
from repro.mem.layout import AccessTrace
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE


def rib_of(*routes):
    rib = Rib()
    for text, hop in routes:
        rib.insert(Prefix.parse(text), hop)
    return rib


class TestLevelCompression:
    def test_constant_chunk_stores_one_item(self):
        level = _Level(256)
        level.append_chunk([7] * 256)
        assert len(level.items) == 1
        assert all(level.get(0, v) == 7 for v in (0, 100, 255))

    def test_runs_collapse(self):
        level = _Level(256)
        level.append_chunk([1] * 100 + [2] * 100 + [1] * 56)
        assert len(level.items) == 3
        assert level.get(0, 0) == 1
        assert level.get(0, 99) == 1
        assert level.get(0, 100) == 2
        assert level.get(0, 200) == 1

    def test_run_crossing_word_boundary(self):
        level = _Level(256)
        values = [5] * 60 + [9] * 70 + [5] * 126
        level.append_chunk(values)
        for v in (59, 60, 63, 64, 129, 130, 255):
            assert level.get(0, v) == values[v]

    def test_multiple_chunks_isolated(self):
        level = _Level(256)
        level.append_chunk([1] * 256)
        level.append_chunk([2] * 256)
        assert level.get(0, 50) == 1
        assert level.get(1, 50) == 2

    def test_worst_case_alternating(self):
        level = _Level(256)
        values = [i % 2 for i in range(256)]
        # Replace 0s (NO_ROUTE is a legal value) with distinct markers.
        values = [(i % 7) + 1 for i in range(256)]
        level.append_chunk(values)
        for v in range(256):
            assert level.get(0, v) == values[v]


class TestLulea:
    def test_simple_lookups(self):
        s = Lulea.from_rib(
            rib_of(("10.0.0.0/8", 1), ("10.1.2.0/24", 2), ("10.1.2.128/25", 3))
        )
        assert s.lookup(Prefix.parse("10.1.2.200/32").value) == 3
        assert s.lookup(Prefix.parse("10.1.2.4/32").value) == 2
        assert s.lookup(Prefix.parse("10.7.7.7/32").value) == 1
        assert s.lookup(Prefix.parse("11.0.0.0/32").value) == NO_ROUTE

    def test_rejects_ipv6(self):
        rib = Rib(width=128)
        rib.insert(Prefix.parse("2001:db8::/32"), 1)
        with pytest.raises(ValueError):
            Lulea.from_rib(rib)

    def test_nexthop_width_limit(self):
        with pytest.raises(StructuralLimitError):
            Lulea.from_rib(rib_of(("10.0.0.0/8", 40_000)))

    def test_against_rib(self, bgp_rib):
        s = Lulea.from_rib(bgp_rib)
        for key in boundary_keys(bgp_rib)[:4000] + random_keys(2500, seed=9):
            assert s.lookup(key) == bgp_rib.lookup(key)

    def test_traced_matches_plain(self, bgp_rib):
        s = Lulea.from_rib(bgp_rib)
        trace = AccessTrace()
        for key in random_keys(400, seed=10):
            trace.reset()
            assert s.lookup_traced(key, trace) == s.lookup(key)
            assert 1 <= len(trace.accesses) <= 3

    def test_compression_beats_expansion(self, bgp_rib):
        """Lulea's raison d'être: far smaller than the expanded arrays
        (2 bytes × 2^16 for level 1 alone)."""
        s = Lulea.from_rib(bgp_rib)
        assert s.memory_bytes() < 2 * (1 << 16)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_tables(self, seed):
        rib = make_random_rib(60, seed=seed, width=32, max_nexthop=12)
        s = Lulea.from_rib(rib)
        for key in boundary_keys(rib):
            assert s.lookup(key) == rib.lookup(key)
