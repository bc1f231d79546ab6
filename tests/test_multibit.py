"""Tests for the uncompressed multibit-trie baseline."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import boundary_keys, make_random_rib, random_keys

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.lookup.multibit import MultibitTrie
from repro.mem.layout import AccessTrace
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE


class TestBasics:
    def test_simple_lookups(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        rib.insert(Prefix.parse("10.1.0.0/16"), 2)
        trie = MultibitTrie.from_rib(rib, k=6)
        assert trie.lookup(Prefix.parse("10.1.2.3/32").value) == 2
        assert trie.lookup(Prefix.parse("10.2.2.3/32").value) == 1
        assert trie.lookup(Prefix.parse("11.0.0.0/32").value) == NO_ROUTE

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            MultibitTrie(k=0, width=32)

    def test_name(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        assert MultibitTrie.from_rib(rib, k=4).name == "Multibit (k=4)"


class TestEquivalence:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_against_rib(self, bgp_rib, k):
        trie = MultibitTrie.from_rib(bgp_rib, k=k)
        for key in boundary_keys(bgp_rib)[:3000] + random_keys(2000, seed=k):
            assert trie.lookup(key) == bgp_rib.lookup(key)

    def test_ipv6(self):
        rib = make_random_rib(120, seed=7, width=128, lengths=[32, 48, 64])
        trie = MultibitTrie.from_rib(rib, k=6)
        for key in boundary_keys(rib):
            assert trie.lookup(key) == rib.lookup(key)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_exhaustive_small(self, seed):
        rib = make_random_rib(30, seed=seed, width=8)
        trie = MultibitTrie.from_rib(rib, k=4)
        for address in range(256):
            assert trie.lookup(address) == rib.lookup(address)

    def test_traced_matches_plain(self, bgp_rib):
        trie = MultibitTrie.from_rib(bgp_rib, k=6)
        trace = AccessTrace()
        for key in random_keys(300, seed=8):
            trace.reset()
            assert trie.lookup_traced(key, trace) == trie.lookup(key)
            assert trace.accesses


class TestCompressionStory:
    def test_poptrie_is_much_smaller_on_same_table(self, bgp_rib):
        """The ablation the baseline exists for: the identical logical trie,
        with and without Poptrie's compression."""
        multibit = MultibitTrie.from_rib(bgp_rib, k=6)
        poptrie = Poptrie.from_rib(bgp_rib, PoptrieConfig(k=6, s=0))
        assert poptrie.memory_bytes() < multibit.memory_bytes() / 3
        # Same number of trie levels, though: compression is free of depth.
        key = Prefix.parse("10.0.0.1/32").value
        assert poptrie.depth_of(key) >= 1

    def test_node_counts_match_poptrie_inodes(self, bgp_rib):
        """Both expand the same radix tree with the same stride, so the
        internal-node counts agree exactly."""
        multibit = MultibitTrie.from_rib(bgp_rib, k=6)
        poptrie = Poptrie.from_rib(bgp_rib, PoptrieConfig(k=6, s=0))
        assert multibit.node_count == poptrie.inode_count
