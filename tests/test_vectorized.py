"""The vectorized batch path through the public surface.

Poptrie's ``lookup_batch`` runs the branchless kernel for IPv4 and IPv6
alike; these tests hold it to the scalar ``lookup`` at the popcount
and mask boundaries, across build configs, and on 128-bit keys.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_random_rib, random_keys

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.lookup.kernels import popcount64, split_v6
from repro.net.prefix import Prefix
from repro.net.rib import Rib


class TestPopcount64:
    def test_zeros(self):
        assert popcount64(np.zeros(4, dtype=np.uint64)).tolist() == [0, 0, 0, 0]

    def test_all_ones(self):
        full = np.full(3, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        assert popcount64(full).tolist() == [64, 64, 64]

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=32))
    def test_matches_bit_count(self, values):
        array = np.array(values, dtype=np.uint64)
        expected = [v.bit_count() for v in values]
        assert popcount64(array).tolist() == expected


def _first_level_trie(v: int) -> "tuple[Poptrie, list]":
    """A k=6, s=16 trie whose first level below the direct array has
    routes ending at chunk value ``v`` (bit 63 of the node's vector when
    ``v == 63``), plus keys that land on, below and above that chunk."""
    rib = Rib()
    rib.insert(Prefix.parse("10.0.0.0/16"), 1)
    rib.insert(Prefix((10 << 24) | (v << 10), 22, 32), 2)
    rib.insert(Prefix((10 << 24) | (v << 10) | (1 << 9), 23, 32), 3)
    trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
    keys = [
        (10 << 24) | (chunk << 10) | low
        for chunk in {0, max(v - 1, 0), v, min(v + 1, 63), 63}
        for low in (0, 1 << 9, (1 << 10) - 1)
    ]
    return trie, keys


class TestLowBitsMask:
    """The kernel's ``(2 << v) - 1`` popcount mask, at every chunk value."""

    def test_v_zero(self):
        trie, keys = _first_level_trie(0)
        assert trie.lookup_batch(keys).tolist() == [trie.lookup(k) for k in keys]

    def test_v_63_no_overflow(self):
        trie, keys = _first_level_trie(63)
        assert trie.lookup_batch(keys).tolist() == [trie.lookup(k) for k in keys]

    @given(st.integers(min_value=0, max_value=63))
    def test_matches_scalar_formula(self, v):
        trie, keys = _first_level_trie(v)
        assert trie.lookup_batch(keys).tolist() == [trie.lookup(k) for k in keys]


class TestBatchLookup:
    @pytest.mark.parametrize(
        "config",
        [
            PoptrieConfig(s=0),
            PoptrieConfig(s=16),
            PoptrieConfig(s=18),
            PoptrieConfig(s=16, use_leafvec=False),
            PoptrieConfig(k=4, s=10),
            PoptrieConfig(s=16, leaf_bits=32),
        ],
    )
    def test_matches_scalar(self, bgp_rib, config):
        trie = Poptrie.from_rib(bgp_rib, config)
        keys = np.array(random_keys(20_000, seed=11), dtype=np.uint64)
        batch = trie.lookup_batch(keys)
        for i in range(0, len(keys), 97):
            assert batch[i] == trie.lookup(int(keys[i]))

    def test_empty_batch(self, bgp_rib):
        trie = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16))
        assert len(trie.lookup_batch(np.array([], dtype=np.uint64))) == 0

    def test_all_direct_leaves(self):
        rib = Rib()
        rib.insert(Prefix.parse("0.0.0.0/0"), 3)
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        keys = np.array(random_keys(100, seed=1), dtype=np.uint64)
        assert (trie.lookup_batch(keys) == 3).all()

    def test_chunk_value_63_lane(self):
        # Exercise v == 63 (the (2 << v) - 1 overflow corner) via a route
        # whose chunk bits are all ones at the first level below s.
        rib = Rib()
        rib.insert(Prefix.parse("255.255.0.0/16", ), 1)
        rib.insert(Prefix.parse("255.255.252.0/22"), 2)
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        keys = np.array(
            [Prefix.parse("255.255.255.255/32").value,
             Prefix.parse("255.255.252.1/32").value],
            dtype=np.uint64,
        )
        out = trie.lookup_batch(keys)
        assert out.tolist() == [2, 2]

    def test_rejects_ipv6(self):
        # A 128-bit key never reaches the 32-bit descent truncated.
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        with pytest.raises(OverflowError):
            trie.lookup_batch([Prefix.parse("2001:db8::/32").value])

    def test_method_on_structure(self, bgp_rib):
        trie = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16))
        keys = random_keys(256, seed=4)
        assert trie.lookup_batch(keys).tolist() == [trie.lookup(k) for k in keys]

    def test_structure_reports_batch_support(self, bgp_rib):
        trie = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16))
        assert trie.supports_batch()
        assert trie.batch_engine() == "kernel:poptrie"


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_batch_equals_scalar(seed):
    rib = make_random_rib(60, seed=seed, width=32, max_nexthop=30)
    trie = Poptrie.from_rib(rib, PoptrieConfig(s=12))
    keys = np.array(random_keys(512, seed=seed + 1), dtype=np.uint64)
    batch = trie.lookup_batch(keys)
    scalar = [trie.lookup(int(k)) for k in keys]
    assert batch.tolist() == scalar


class TestBatchLookupV6:
    def _table(self):
        from repro.data.synth import generate_table_v6

        rib, _ = generate_table_v6(600, 13, seed=4)
        return rib

    @pytest.mark.parametrize("s", [0, 16, 18])
    def test_matches_scalar(self, s):
        from repro.data.traffic import random_addresses_v6

        rib = self._table()
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=s))
        keys = random_addresses_v6(2000, seed=9)
        # Mix in covered addresses so deep paths are exercised.
        keys += [p.value for p, _ in list(rib.routes())[:300]]
        got = trie.lookup_batch(keys)
        for key, value in zip(keys, got):
            assert value == trie.lookup(key)

    def test_method_dispatches_v6(self):
        rib = self._table()
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        keys = [p.value for p, _ in list(rib.routes())[:64]]
        assert (trie.lookup_batch(keys) == [trie.lookup(k) for k in keys]).all()
        assert trie.batch_engine() == "kernel:poptrie"

    def test_empty_batch(self):
        rib = self._table()
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        assert len(trie.lookup_batch([])) == 0

    def test_split_v6(self):
        hi, lo = split_v6([(0xABCD << 64) | 0x1234, (1 << 128) - 1, 5])
        assert hi.dtype == lo.dtype == np.uint64
        assert hi.tolist() == [0xABCD, (1 << 64) - 1, 0]
        assert lo.tolist() == [0x1234, (1 << 64) - 1, 5]
