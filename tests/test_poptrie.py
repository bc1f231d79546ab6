"""Unit and property tests for the Poptrie structure itself."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import boundary_keys, make_random_rib, random_keys

from repro.core.poptrie import DIRECT_LEAF, Poptrie, PoptrieConfig
from repro.errors import StructuralLimitError
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE


def rib_of(*routes, width=32):
    rib = Rib(width=width)
    for text, hop in routes:
        rib.insert(Prefix.parse(text), hop)
    return rib


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = PoptrieConfig()
        assert cfg.k == 6 and cfg.s == 18 and cfg.use_leafvec

    def test_node_bytes(self):
        assert PoptrieConfig(use_leafvec=False).node_bytes == 16
        assert PoptrieConfig(use_leafvec=True).node_bytes == 24

    def test_leaf_bytes(self):
        assert PoptrieConfig(leaf_bits=16).leaf_bytes == 2
        assert PoptrieConfig(leaf_bits=32).leaf_bytes == 4

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            PoptrieConfig(k=7)

    def test_rejects_bad_leaf_bits(self):
        with pytest.raises(ValueError):
            PoptrieConfig(leaf_bits=8)

    def test_rejects_s_wider_than_address(self):
        with pytest.raises(ValueError):
            Poptrie(PoptrieConfig(s=40), width=32)

    def test_name_convention(self):
        rib = rib_of(("10.0.0.0/8", 1))
        assert Poptrie.from_rib(rib, PoptrieConfig(s=18)).name == "Poptrie18"
        assert Poptrie.from_rib(rib, PoptrieConfig(s=0)).name == "Poptrie0"
        assert "basic" in Poptrie.from_rib(
            rib, PoptrieConfig(s=0, use_leafvec=False)
        ).name


class TestPaperWorkedExample:
    """The k = 2 configuration of the paper's Figures 1–4."""

    def test_two_level_lookup(self):
        # An 8-bit toy family: routes 01b/2 -> A and 0110b/4 -> B.
        rib = Rib(width=8)
        rib.insert(Prefix.from_bits("01", 8), 1)
        rib.insert(Prefix.from_bits("0110", 8), 2)
        trie = Poptrie.from_rib(rib, PoptrieConfig(k=2, s=0))
        # Figure 4's query 0110 0111b must find the longer match.
        assert trie.lookup(0b01100111) == 2
        # 0100 0000b stays on the /2.
        assert trie.lookup(0b01000000) == 1
        # 1000 0000b matches nothing.
        assert trie.lookup(0b10000000) == NO_ROUTE

    def test_root_vector_marks_internal_slot(self):
        rib = Rib(width=8)
        rib.insert(Prefix.from_bits("01", 8), 1)
        rib.insert(Prefix.from_bits("0110", 8), 2)
        trie = Poptrie.from_rib(rib, PoptrieConfig(k=2, s=0))
        root_vector = trie.vec[trie.root_index]
        assert root_vector == 0b0010  # only chunk value 01b descends


class TestEquivalenceExhaustive:
    @pytest.mark.parametrize(
        "config",
        [
            PoptrieConfig(k=6, s=0),
            PoptrieConfig(k=6, s=4),
            PoptrieConfig(k=4, s=7),
            PoptrieConfig(k=2, s=0),
            PoptrieConfig(k=6, s=0, use_leafvec=False),
            PoptrieConfig(k=6, s=8, use_leafvec=False),
        ],
    )
    def test_all_addresses_width_16(self, config):
        rib = make_random_rib(120, seed=77, width=16, max_nexthop=30)
        trie = Poptrie.from_rib(rib, config)
        for address in range(1 << 16):
            assert trie.lookup(address) == rib.lookup(address)

    def test_empty_table_always_misses(self):
        trie = Poptrie.from_rib(Rib(width=16), PoptrieConfig(k=6, s=4))
        for address in range(1 << 16):
            assert trie.lookup(address) == NO_ROUTE


class TestEquivalenceSampled:
    @pytest.mark.parametrize("s", [0, 16, 18])
    def test_ipv4_boundaries_and_random(self, bgp_rib, s):
        trie = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=s))
        for key in boundary_keys(bgp_rib) + random_keys(5000, seed=s + 1):
            assert trie.lookup(key) == bgp_rib.lookup(key)

    def test_basic_mode(self, bgp_rib):
        trie = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16, use_leafvec=False))
        for key in random_keys(3000, seed=2):
            assert trie.lookup(key) == bgp_rib.lookup(key)

    def test_ipv6(self):
        rib = make_random_rib(300, seed=5, width=128, lengths=list(range(16, 65)))
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        for key in boundary_keys(rib) + random_keys(1000, seed=3, width=128):
            assert trie.lookup(key) == rib.lookup(key)

    def test_ipv6_no_direct_pointing(self):
        rib = make_random_rib(200, seed=6, width=128, lengths=[32, 48, 64])
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=0))
        for key in boundary_keys(rib):
            assert trie.lookup(key) == rib.lookup(key)


class TestDirectPointing:
    def test_short_route_becomes_tagged_leaf(self):
        rib = rib_of(("10.0.0.0/8", 3))
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        entry = trie.direct[0x0A00]
        assert entry & DIRECT_LEAF
        assert entry & (DIRECT_LEAF - 1) == 3

    def test_deep_route_creates_subtree(self):
        rib = rib_of(("10.0.0.0/24", 3))
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        entry = trie.direct[0x0A00]
        assert not entry & DIRECT_LEAF
        assert trie.inode_count >= 1

    def test_direct_array_size(self):
        rib = rib_of(("10.0.0.0/8", 1))
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=12))
        assert len(trie.direct) == 1 << 12

    def test_s0_has_no_direct_array(self):
        rib = rib_of(("10.0.0.0/8", 1))
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=0))
        assert len(trie.direct) == 0


class TestDepthOf:
    def test_direct_hit_is_depth_zero(self):
        rib = rib_of(("10.0.0.0/8", 1))
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        assert trie.depth_of(Prefix.parse("10.1.1.1/32").value) == 0

    def test_one_node_for_24_at_s18(self):
        # Section 4.3's rationale for s = 18: /24s need one node traversal.
        rib = rib_of(("10.0.0.0/24", 1), ("10.0.0.0/8", 2))
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=18))
        assert trie.depth_of(Prefix.parse("10.0.0.1/32").value) == 1

    def test_host_route_depth(self):
        rib = rib_of(("10.0.0.1/32", 1))
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=18))
        # 18 + 6 + 6 + 6 > 32: host routes resolve within three levels.
        assert trie.depth_of(Prefix.parse("10.0.0.1/32").value) <= 3


class TestStructuralLimits:
    def test_16bit_leaves_reject_large_fib(self):
        rib = rib_of(("10.0.0.0/8", 1))
        with pytest.raises(StructuralLimitError):
            Poptrie.from_rib(rib, PoptrieConfig(leaf_bits=16), fib_size=70000)

    def test_32bit_leaves_accept_large_fib(self):
        rib = rib_of(("10.0.0.0/8", 1))
        trie = Poptrie.from_rib(rib, PoptrieConfig(leaf_bits=32), fib_size=70000)
        assert trie.lookup(Prefix.parse("10.0.0.1/32").value) == 1

    def test_write_leaf_checks_width(self):
        trie = Poptrie(PoptrieConfig(leaf_bits=16))
        trie.alloc_leaves(1)
        with pytest.raises(StructuralLimitError):
            trie.write_leaf(0, 1 << 16)


class TestMemoryAccounting:
    def test_leafvec_compresses_leaves(self, bgp_rib):
        basic = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16, use_leafvec=False))
        leafvec = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16, use_leafvec=True))
        # Table 2: the leafvec removes the overwhelming majority of leaves.
        assert leafvec.leaf_count < basic.leaf_count / 5

    def test_memory_bytes_formula(self):
        rib = rib_of(("10.0.0.0/24", 1))
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        expected = trie.inode_count * 24 + trie.leaf_count * 2 + 4 * (1 << 16)
        assert trie.memory_bytes() == expected

    def test_allocated_at_least_used(self, bgp_rib):
        trie = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16))
        assert trie.allocated_bytes() >= trie.memory_bytes()


class TestIterNodes:
    def test_reachable_nodes_are_live(self, bgp_rib):
        trie = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16))
        live = trie.node_alloc.live_blocks()
        spans = sorted((off, off + size) for off, size in live.items())

        def in_live(index):
            import bisect

            i = bisect.bisect_right(spans, (index, float("inf"))) - 1
            return i >= 0 and spans[i][0] <= index < spans[i][1]

        count = 0
        for index, *_ in trie.iter_nodes():
            assert in_live(index), f"node {index} outside live allocations"
            count += 1
        assert count == trie.inode_count

    def test_every_leaf_slot_has_a_run_start(self, bgp_rib):
        """For every leaf slot v, popcount(leafvec below v+1) ≥ 1 — i.e. the
        Algorithm 2 index computation never underflows."""
        trie = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16))
        slots = 1 << trie.k
        for _, vector, leafvec, _, _ in trie.iter_nodes():
            for v in range(slots):
                if not (vector >> v) & 1:  # leaf slot
                    assert leafvec & ((2 << v) - 1), (
                        f"leaf slot {v} has no run start at or below it"
                    )


class TestTracedLookup:
    def test_traced_matches_plain(self, bgp_rib):
        from repro.mem.layout import AccessTrace

        trie = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16))
        trace = AccessTrace()
        for key in random_keys(500, seed=4):
            trace.reset()
            assert trie.lookup_traced(key, trace) == trie.lookup(key)

    def test_trace_contents(self):
        from repro.mem.layout import AccessTrace

        rib = rib_of(("10.0.0.0/24", 1))
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        trace = AccessTrace()
        trie.lookup_traced(Prefix.parse("10.0.0.1/32").value, trace)
        # direct entry + ≥1 node + leaf
        assert len(trace.accesses) >= 3
        assert trace.instructions > 0

    def test_direct_leaf_is_single_access(self):
        from repro.mem.layout import AccessTrace

        rib = rib_of(("10.0.0.0/8", 1))
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        trace = AccessTrace()
        trie.lookup_traced(Prefix.parse("10.1.1.1/32").value, trace)
        assert len(trace.accesses) == 1


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    s=st.sampled_from([0, 5, 10]),
)
def test_property_poptrie_equals_radix(seed, s):
    """For arbitrary route tables, Poptrie lookups equal RIB lookups on
    every prefix boundary and a random sample (invariant 1 of DESIGN.md)."""
    rib = make_random_rib(50, seed=seed, width=16, max_nexthop=20)
    trie = Poptrie.from_rib(rib, PoptrieConfig(k=6, s=s))
    keys = boundary_keys(rib) + random_keys(512, seed=seed + 1, width=16)
    for key in keys:
        assert trie.lookup(key) == rib.lookup(key)
