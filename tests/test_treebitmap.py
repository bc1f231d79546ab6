"""Tests for the Tree BitMap baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import boundary_keys, make_random_rib, random_keys

from repro.lookup.treebitmap import TreeBitmap
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
    @pytest.mark.parametrize("stride", [4, 6])
    def test_simple_lookup(self, stride):
        rib = rib_of(("10.0.0.0/8", 1), ("10.1.0.0/16", 2))
        tbm = TreeBitmap.from_rib(rib, stride=stride)
        assert tbm.lookup(Prefix.parse("10.1.2.3/32").value) == 2
        assert tbm.lookup(Prefix.parse("10.2.2.3/32").value) == 1
        assert tbm.lookup(Prefix.parse("11.0.0.0/32").value) == NO_ROUTE

    def test_default_route(self):
        rib = rib_of(("0.0.0.0/0", 9))
        tbm = TreeBitmap.from_rib(rib, stride=4)
        assert tbm.lookup(0xDEADBEEF) == 9

    def test_host_route(self):
        rib = rib_of(("10.0.0.1/32", 4))
        tbm = TreeBitmap.from_rib(rib, stride=6)
        assert tbm.lookup(Prefix.parse("10.0.0.1/32").value) == 4
        assert tbm.lookup(Prefix.parse("10.0.0.0/32").value) == NO_ROUTE

    def test_prefix_not_on_stride_boundary(self):
        # /10 is internal to the level-2 node at stride 4.
        rib = rib_of(("10.192.0.0/10", 3))
        tbm = TreeBitmap.from_rib(rib, stride=4)
        assert tbm.lookup(Prefix.parse("10.200.0.0/32").value) == 3
        assert tbm.lookup(Prefix.parse("10.0.0.0/32").value) == NO_ROUTE

    def test_backtrack_to_shallower_internal_match(self):
        # Deep walk that fails must fall back to the /8's remembered match.
        rib = rib_of(("10.0.0.0/8", 1), ("10.0.0.0/30", 2))
        tbm = TreeBitmap.from_rib(rib, stride=4)
        assert tbm.lookup(Prefix.parse("10.0.0.200/32").value) == 1

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            TreeBitmap(stride=7, width=32)

    def test_names(self):
        rib = rib_of(("10.0.0.0/8", 1))
        assert TreeBitmap.from_rib(rib, stride=4).name == "Tree BitMap"
        assert "64-ary" in TreeBitmap.from_rib(rib, stride=6).name


class TestEquivalence:
    @pytest.mark.parametrize("stride", [2, 4, 6])
    def test_against_rib(self, bgp_rib, stride):
        tbm = TreeBitmap.from_rib(bgp_rib, stride=stride)
        for key in boundary_keys(bgp_rib)[:4000] + random_keys(3000, seed=stride):
            assert tbm.lookup(key) == bgp_rib.lookup(key)

    def test_ipv6(self):
        rib = make_random_rib(150, seed=8, width=128, lengths=[32, 48, 64])
        tbm = TreeBitmap.from_rib(rib, stride=4)
        for key in boundary_keys(rib):
            assert tbm.lookup(key) == rib.lookup(key)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_exhaustive_small(self, seed):
        rib = make_random_rib(30, seed=seed, width=8)
        tbm = TreeBitmap.from_rib(rib, stride=4)
        for address in range(256):
            assert tbm.lookup(address) == rib.lookup(address)


class TestInternals:
    def test_traced_matches_plain(self, bgp_rib):
        tbm = TreeBitmap.from_rib(bgp_rib, stride=6)
        trace = AccessTrace()
        for key in random_keys(400, seed=5):
            trace.reset()
            assert tbm.lookup_traced(key, trace) == tbm.lookup(key)

    def test_traced_includes_result_fetch(self):
        rib = rib_of(("10.0.0.0/8", 1))
        tbm = TreeBitmap.from_rib(rib, stride=4)
        trace = AccessTrace()
        tbm.lookup_traced(Prefix.parse("10.1.1.1/32").value, trace)
        # nodes on the walk + the lazy result fetch at the end
        assert len(trace.accesses) >= 3

    def test_64ary_is_shallower_than_16ary(self, bgp_rib):
        t4 = TreeBitmap.from_rib(bgp_rib, stride=4)
        t6 = TreeBitmap.from_rib(bgp_rib, stride=6)
        key = Prefix.parse("10.0.0.1/32").value
        tr4, tr6 = AccessTrace(), AccessTrace()
        t4.lookup_traced(key, tr4)
        t6.lookup_traced(key, tr6)
        assert len(tr6.accesses) <= len(tr4.accesses)

    def test_memory_accounting(self, bgp_rib):
        tbm = TreeBitmap.from_rib(bgp_rib, stride=4)
        expected = tbm.node_bytes * len(tbm.ext) + 2 * len(tbm.results)
        assert tbm.memory_bytes() == expected

    def test_children_blocks_contiguous(self, bgp_rib):
        tbm = TreeBitmap.from_rib(bgp_rib, stride=6)
        # Walk all nodes: every marked child index must be a valid node.
        for index in range(len(tbm.ext)):
            ext = tbm.ext[index]
            count = bin(ext).count("1")
            if count:
                base = tbm.child_base[index]
                assert base + count <= len(tbm.ext)
