"""Tests for the Section 2 related-work baselines: Patricia trie,
binary search on prefix lengths (Waldvogel), and Bloom-filter LPM."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import boundary_keys, make_random_rib, random_keys

from repro.lookup.bloom import BloomFilter, BloomLpm
from repro.lookup.bsearch_lengths import BinarySearchLengths
from repro.lookup.patricia import PatriciaTrie
from repro.mem.layout import AccessTrace
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE


def rib_of(*routes):
    rib = Rib()
    for text, hop in routes:
        rib.insert(Prefix.parse(text), hop)
    return rib


class TestPatricia:
    def test_simple_lookup(self):
        trie = PatriciaTrie.from_rib(
            rib_of(("10.0.0.0/8", 1), ("10.1.0.0/16", 2))
        )
        assert trie.lookup(Prefix.parse("10.1.2.3/32").value) == 2
        assert trie.lookup(Prefix.parse("10.2.2.3/32").value) == 1
        assert trie.lookup(Prefix.parse("11.0.0.0/32").value) == NO_ROUTE

    def test_default_route(self):
        trie = PatriciaTrie.from_rib(rib_of(("0.0.0.0/0", 9)))
        assert trie.lookup(0xDEADBEEF) == 9

    def test_replace_route(self):
        trie = PatriciaTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), 1)
        trie.insert(Prefix.parse("10.0.0.0/8"), 5)
        assert trie.lookup(Prefix.parse("10.1.1.1/32").value) == 5
        assert len(trie) == 1

    def test_path_compression_bounds_nodes(self, bgp_rib):
        """The defining Patricia property: ≤ 2 nodes per route regardless
        of prefix length (the plain radix tree needs up to 32)."""
        trie = PatriciaTrie.from_rib(bgp_rib)
        assert trie.node_count <= 2 * len(trie)
        assert trie.memory_bytes() < bgp_rib.memory_bytes()

    def test_against_rib(self, bgp_rib):
        trie = PatriciaTrie.from_rib(bgp_rib)
        for key in boundary_keys(bgp_rib)[:3000] + random_keys(2000, seed=1):
            assert trie.lookup(key) == bgp_rib.lookup(key)

    def test_traced_matches_plain(self, bgp_rib):
        trie = PatriciaTrie.from_rib(bgp_rib)
        trace = AccessTrace()
        for key in random_keys(300, seed=2):
            trace.reset()
            assert trie.lookup_traced(key, trace) == trie.lookup(key)
            assert trace.accesses

    def test_ipv6(self):
        rib = make_random_rib(120, seed=3, width=128, lengths=[32, 48, 64])
        trie = PatriciaTrie.from_rib(rib)
        for key in boundary_keys(rib):
            assert trie.lookup(key) == rib.lookup(key)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_exhaustive_small(self, seed):
        rib = make_random_rib(35, seed=seed, width=8)
        trie = PatriciaTrie.from_rib(rib)
        for address in range(256):
            assert trie.lookup(address) == rib.lookup(address)


class TestBinarySearchLengths:
    def test_simple_lookup(self):
        s = BinarySearchLengths.from_rib(
            rib_of(("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("10.1.2.0/24", 3))
        )
        assert s.lookup(Prefix.parse("10.1.2.9/32").value) == 3
        assert s.lookup(Prefix.parse("10.1.9.9/32").value) == 2
        assert s.lookup(Prefix.parse("10.9.9.9/32").value) == 1
        assert s.lookup(Prefix.parse("11.0.0.0/32").value) == NO_ROUTE

    def test_default_route(self):
        s = BinarySearchLengths.from_rib(rib_of(("0.0.0.0/0", 7)))
        assert s.lookup(123456) == 7

    def test_markers_exist_for_deep_prefixes(self):
        # The /32's search path probes lengths 16 and 24, where no real
        # prefix of 10.5.* exists — markers must be deposited there.
        s = BinarySearchLengths.from_rib(
            rib_of(
                ("10.0.0.0/8", 1),
                ("10.1.0.0/16", 2),
                ("10.1.2.0/24", 3),
                ("10.5.6.7/32", 4),
            )
        )
        assert s.marker_count >= 2
        assert s.lookup(Prefix.parse("10.5.6.7/32").value) == 4
        # The markers themselves resolve to the covering /8.
        assert s.lookup(Prefix.parse("10.5.6.0/32").value) == 1

    def test_marker_miss_never_loses_match(self):
        """The classic Waldvogel trap: a marker leads the search longer,
        the longer side misses, and the answer must come from the
        marker's precomputed BMP — not from backtracking."""
        s = BinarySearchLengths.from_rib(
            rib_of(
                ("10.0.0.0/8", 1),
                ("10.128.0.0/9", 2),
                ("10.128.0.0/30", 3),
            )
        )
        # Key inside the /9 but far from the /30: the /30's marker chain
        # pulls the search deep, which must still resolve to the /9.
        assert s.lookup(Prefix.parse("10.200.0.0/32").value) == 2

    def test_probe_count_is_logarithmic(self, bgp_rib):
        s = BinarySearchLengths.from_rib(bgp_rib)
        trace = AccessTrace()
        distinct = len(s.lengths)
        bound = distinct.bit_length() + 1
        for key in random_keys(200, seed=4):
            trace.reset()
            s.lookup_traced(key, trace)
            assert len(trace.accesses) <= bound

    def test_against_rib(self, bgp_rib):
        s = BinarySearchLengths.from_rib(bgp_rib)
        for key in boundary_keys(bgp_rib)[:3000] + random_keys(2000, seed=5):
            assert s.lookup(key) == bgp_rib.lookup(key)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_exhaustive_small(self, seed):
        rib = make_random_rib(35, seed=seed, width=8)
        s = BinarySearchLengths.from_rib(rib)
        for address in range(256):
            assert s.lookup(address) == rib.lookup(address)


class TestBloomFilter:
    def test_no_false_negatives(self):
        f = BloomFilter(bits=256, hashes=3)
        for item in range(40):
            f.add(item)
        assert all(f.may_contain(item) for item in range(40))

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            BloomFilter(bits=0, hashes=1)

    def test_false_positive_rate_tracks_sizing(self):
        generous = BloomFilter(bits=4096, hashes=4)
        tight = BloomFilter(bits=128, hashes=4)
        for item in range(100):
            generous.add(item)
            tight.add(item)
        probes = range(10_000, 12_000)
        fp_generous = sum(generous.may_contain(i) for i in probes)
        fp_tight = sum(tight.may_contain(i) for i in probes)
        assert fp_generous < fp_tight


class TestBloomLpm:
    def test_simple_lookup(self):
        s = BloomLpm.from_rib(
            rib_of(("10.0.0.0/8", 1), ("10.1.0.0/16", 2))
        )
        assert s.lookup(Prefix.parse("10.1.2.3/32").value) == 2
        assert s.lookup(Prefix.parse("10.9.9.9/32").value) == 1
        assert s.lookup(Prefix.parse("11.0.0.0/32").value) == NO_ROUTE

    def test_default_route(self):
        s = BloomLpm.from_rib(rib_of(("0.0.0.0/0", 3)))
        assert s.lookup(99) == 3

    def test_against_rib(self, bgp_rib):
        s = BloomLpm.from_rib(bgp_rib)
        for key in boundary_keys(bgp_rib)[:2000] + random_keys(1500, seed=6):
            assert s.lookup(key) == bgp_rib.lookup(key)

    def test_false_positives_are_harmless_and_track_sizing(self, bgp_rib):
        tight = BloomLpm.from_rib(bgp_rib, bits_per_entry=6, hashes=3)
        generous = BloomLpm.from_rib(bgp_rib, bits_per_entry=24, hashes=5)
        for key in random_keys(3000, seed=7):
            expected = bgp_rib.lookup(key)
            # Correct regardless of any false positives.
            assert tight.lookup(key) == expected
            assert generous.lookup(key) == expected
        # Larger filters waste fewer off-chip probes — the Dharmapurikar
        # trade-off the structure exists to expose.  Per-lookup wasted
        # probes is the metric the sizing controls.
        assert (
            generous.false_positives_per_lookup()
            <= tight.false_positives_per_lookup()
        )
        assert generous.false_positives_per_lookup() < 0.05

    def test_traced_matches_plain(self, bgp_rib):
        s = BloomLpm.from_rib(bgp_rib)
        trace = AccessTrace()
        for key in random_keys(300, seed=8):
            trace.reset()
            assert s.lookup_traced(key, trace) == s.lookup(key)

    def test_memory_includes_filters(self, bgp_rib):
        s = BloomLpm.from_rib(bgp_rib)
        filters = sum(f.size_bytes() for f in s.filters.values())
        assert s.memory_bytes() > filters > 0
