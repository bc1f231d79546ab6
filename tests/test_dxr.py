"""Tests for the DXR baseline (D16R/D18R)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import boundary_keys, make_random_rib, random_keys

from repro.errors import StructuralLimitError
from repro.lookup.dxr import _DIRECT_FLAG, Dxr
from repro.mem.layout import AccessTrace
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE
from repro.parallel.image import TableImage


def rib_of(*routes, width=32):
    rib = Rib(width=width)
    for text, hop in routes:
        rib.insert(Prefix.parse(text), hop)
    return rib


class TestBasics:
    @pytest.mark.parametrize("s", [16, 18])
    def test_simple_lookups(self, s):
        rib = rib_of(("10.0.0.0/8", 1), ("10.1.0.0/24", 2))
        dxr = Dxr.from_rib(rib, s=s)
        assert dxr.lookup(Prefix.parse("10.1.0.5/32").value) == 2
        assert dxr.lookup(Prefix.parse("10.9.9.9/32").value) == 1
        assert dxr.lookup(Prefix.parse("9.0.0.0/32").value) == NO_ROUTE

    def test_names(self):
        rib = rib_of(("10.0.0.0/8", 1))
        assert Dxr.from_rib(rib, s=16).name == "D16R"
        assert Dxr.from_rib(rib, s=18).name == "D18R"
        assert "modified" in Dxr.from_rib(rib, s=18, modified=True).name

    def test_uniform_chunk_stored_direct(self):
        rib = rib_of(("10.0.0.0/8", 1))
        dxr = Dxr.from_rib(rib, s=16)
        assert dxr.table[0x0A01] & _DIRECT_FLAG
        assert len(dxr.starts) == 0

    def test_split_chunk_gets_ranges(self):
        rib = rib_of(("10.0.0.0/16", 1), ("10.0.128.0/17", 2))
        dxr = Dxr.from_rib(rib, s=16)
        assert not dxr.table[0x0A00] & _DIRECT_FLAG
        base, count = dxr.chunk_bounds[0x0A00]
        assert count == 2
        assert dxr.starts[base] == 0  # every range chunk starts at offset 0

    def test_range_boundaries(self):
        rib = rib_of(("10.0.0.0/16", 1), ("10.0.128.0/17", 2))
        dxr = Dxr.from_rib(rib, s=16)
        assert dxr.lookup(Prefix.parse("10.0.127.255/32").value) == 1
        assert dxr.lookup(Prefix.parse("10.0.128.0/32").value) == 2

    def test_adjacent_equal_ranges_merge(self):
        # Two /17s with the same hop make one run, so the chunk is direct.
        rib = rib_of(("10.0.0.0/17", 3), ("10.0.128.0/17", 3))
        dxr = Dxr.from_rib(rib, s=16)
        assert dxr.table[0x0A00] & _DIRECT_FLAG


class TestEquivalence:
    @pytest.mark.parametrize("s,modified", [(16, False), (18, False), (18, True)])
    def test_against_rib(self, bgp_rib, s, modified):
        dxr = Dxr.from_rib(bgp_rib, s=s, modified=modified)
        for key in boundary_keys(bgp_rib)[:4000] + random_keys(3000, seed=s):
            assert dxr.lookup(key) == bgp_rib.lookup(key)

    def test_batch_matches_scalar(self, bgp_rib):
        dxr = Dxr.from_rib(bgp_rib, s=16)
        keys = np.array(random_keys(20_000, seed=9), dtype=np.uint64)
        batch = dxr.lookup_batch(keys)
        for i in range(0, len(keys), 131):
            assert batch[i] == dxr.lookup(int(keys[i]))

    def test_traced_matches_plain(self, bgp_rib):
        dxr = Dxr.from_rib(bgp_rib, s=18)
        trace = AccessTrace()
        for key in random_keys(400, seed=10):
            trace.reset()
            assert dxr.lookup_traced(key, trace) == dxr.lookup(key)

    def test_traced_counts_probes_and_mispredicts(self):
        rib = rib_of(
            ("10.0.0.0/16", 1),
            ("10.0.64.0/18", 2),
            ("10.0.128.0/18", 3),
            ("10.0.192.0/20", 4),
        )
        dxr = Dxr.from_rib(rib, s=16)
        trace = AccessTrace()
        dxr.lookup_traced(Prefix.parse("10.0.200.0/32").value, trace)
        assert len(trace.accesses) >= 3  # table + ≥2 binary-search probes
        assert trace.mispredicts > 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_tables(self, seed):
        rib = make_random_rib(80, seed=seed, width=32, max_nexthop=12)
        dxr = Dxr.from_rib(rib, s=16)
        for key in boundary_keys(rib):
            assert dxr.lookup(key) == rib.lookup(key)


class TestStructuralLimits:
    def test_range_limit_enforced(self, monkeypatch):
        import repro.lookup.dxr as dxr_module

        monkeypatch.setattr(dxr_module, "MAX_RANGES", 4)
        rib = rib_of(
            ("10.0.0.0/17", 1), ("10.0.128.0/17", 2),
            ("10.1.0.0/17", 3), ("10.1.128.0/17", 4),
            ("10.2.0.0/17", 5), ("10.2.128.0/17", 6),
        )
        with pytest.raises(StructuralLimitError):
            Dxr.from_rib(rib, s=16)

    def test_modified_doubles_limit(self, monkeypatch):
        import repro.lookup.dxr as dxr_module

        monkeypatch.setattr(dxr_module, "MAX_RANGES", 4)
        monkeypatch.setattr(dxr_module, "MAX_RANGES_MODIFIED", 1 << 20)
        rib = rib_of(
            ("10.0.0.0/17", 1), ("10.0.128.0/17", 2),
            ("10.1.0.0/17", 3), ("10.1.128.0/17", 4),
            ("10.2.0.0/17", 5), ("10.2.128.0/17", 6),
        )
        dxr = Dxr.from_rib(rib, s=16, modified=True)
        assert dxr.lookup(Prefix.parse("10.0.129.0/32").value) == 2

    def test_ipv6_requires_modified(self):
        rib = make_random_rib(50, seed=3, width=128, lengths=[32, 48])
        with pytest.raises(StructuralLimitError):
            Dxr.from_rib(rib, s=16, modified=False)

    def test_ipv6_modified_works(self):
        rib = make_random_rib(100, seed=3, width=128, lengths=[32, 48, 64])
        dxr = Dxr.from_rib(rib, s=16, modified=True)
        for key in boundary_keys(rib):
            assert dxr.lookup(key) == rib.lookup(key)

    @pytest.mark.parametrize("copy", [True, False])
    def test_ipv6_image_round_trip(self, copy):
        # Range starts span 112 bits here, so the image stores them as
        # (hi, lo) uint64 columns.
        rib = make_random_rib(200, seed=5, width=128, lengths=[32, 48, 64, 96])
        dxr = Dxr.from_rib(rib, s=16, modified=True)
        assert max(dxr.starts) >= 1 << 64
        image = TableImage.open(dxr.to_image().to_bytes())
        assert "starts_hi" in image.segment_names()
        rebuilt = Dxr.from_image(image, copy=copy)
        assert rebuilt.starts == dxr.starts
        assert rebuilt.to_image().fingerprint() == image.fingerprint()
        for key in boundary_keys(rib) + random_keys(500, seed=6, width=128):
            assert rebuilt.lookup(key) == rib.lookup(key)


class TestMemory:
    def test_table_plus_ranges(self, bgp_rib):
        dxr = Dxr.from_rib(bgp_rib, s=16)
        assert dxr.memory_bytes() == 4 * (1 << 16) + 4 * len(dxr.starts)

    def test_d18r_table_is_4x_d16r(self, bgp_rib):
        d16 = Dxr.from_rib(bgp_rib, s=16)
        d18 = Dxr.from_rib(bgp_rib, s=18)
        assert len(d18.table) == 4 * len(d16.table)
        # Splitting /16 chunks four ways re-anchors each piece at offset 0,
        # so the range count stays the same order (±boundary duplication).
        assert len(d18.starts) <= 4 * max(len(d16.starts), 1)
