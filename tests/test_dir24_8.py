"""Tests for the DIR-24-8-BASIC baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import boundary_keys, make_random_rib, random_keys

from repro.errors import StructuralLimitError
from repro.lookup.dir24_8 import _CHUNK_FLAG, Dir24_8
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
    def test_short_prefix_single_access(self):
        d = Dir24_8.from_rib(rib_of(("10.0.0.0/8", 1)))
        assert d.lookup(Prefix.parse("10.1.2.3/32").value) == 1
        assert len(d.tbl_long) == 0

    def test_long_prefix_uses_second_level(self):
        d = Dir24_8.from_rib(rib_of(("10.0.0.0/24", 1), ("10.0.0.128/25", 2)))
        assert d.lookup(Prefix.parse("10.0.0.200/32").value) == 2
        assert d.lookup(Prefix.parse("10.0.0.100/32").value) == 1
        assert len(d.tbl_long) == 256

    def test_miss(self):
        d = Dir24_8.from_rib(rib_of(("10.0.0.0/8", 1)))
        assert d.lookup(Prefix.parse("11.0.0.0/32").value) == NO_ROUTE

    def test_rejects_ipv6(self):
        rib = Rib(width=128)
        rib.insert(Prefix.parse("2001:db8::/32"), 1)
        with pytest.raises(ValueError):
            Dir24_8.from_rib(rib)

    def test_nexthop_width_limit(self):
        with pytest.raises(StructuralLimitError):
            Dir24_8.from_rib(rib_of(("10.0.0.0/8", 40_000)))


class TestEquivalence:
    def test_against_rib(self, bgp_rib):
        d = Dir24_8.from_rib(bgp_rib)
        for key in boundary_keys(bgp_rib)[:4000] + random_keys(3000, seed=12):
            assert d.lookup(key) == bgp_rib.lookup(key)

    def test_batch_matches_scalar(self, bgp_rib):
        d = Dir24_8.from_rib(bgp_rib)
        keys = np.array(random_keys(20_000, seed=13), dtype=np.uint64)
        batch = d.lookup_batch(keys)
        for i in range(0, len(keys), 127):
            assert batch[i] == d.lookup(int(keys[i]))

    def test_traced_matches_plain(self, bgp_rib):
        d = Dir24_8.from_rib(bgp_rib)
        trace = AccessTrace()
        for key in random_keys(300, seed=14):
            trace.reset()
            assert d.lookup_traced(key, trace) == d.lookup(key)

    def test_trace_is_one_or_two_accesses(self, bgp_rib):
        d = Dir24_8.from_rib(bgp_rib)
        trace = AccessTrace()
        for key in random_keys(300, seed=15):
            trace.reset()
            d.lookup_traced(key, trace)
            assert len(trace.accesses) in (1, 2)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_tables(self, seed):
        rib = make_random_rib(60, seed=seed, width=32, max_nexthop=12)
        d = Dir24_8.from_rib(rib)
        for key in boundary_keys(rib):
            assert d.lookup(key) == rib.lookup(key)


class TestMemory:
    def test_dominated_by_first_level(self, bgp_rib):
        d = Dir24_8.from_rib(bgp_rib)
        assert d.memory_bytes() >= 2 << 24  # the famous 32 MiB floor
