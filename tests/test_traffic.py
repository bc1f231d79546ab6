"""Tests for the traffic-pattern generators."""

import numpy as np

from repro.data.synth import generate_table
from repro.data.traffic import (
    random_addresses,
    random_addresses_v6,
    real_trace,
    repeated_addresses,
    sequential_addresses,
)


class TestRandom:
    def test_shape_and_dtype(self):
        keys = random_addresses(1000)
        assert keys.dtype == np.uint64 and len(keys) == 1000

    def test_values_are_ipv4(self):
        keys = random_addresses(1000)
        assert int(keys.max()) < 1 << 32

    def test_deterministic_per_seed(self):
        assert (random_addresses(100, seed=5) == random_addresses(100, seed=5)).all()
        assert (random_addresses(100, seed=5) != random_addresses(100, seed=6)).any()


class TestSequential:
    def test_consecutive(self):
        keys = sequential_addresses(10, start=100)
        assert keys.tolist() == list(range(100, 110))

    def test_wraps_at_32_bits(self):
        keys = sequential_addresses(4, start=(1 << 32) - 2)
        assert keys.tolist() == [(1 << 32) - 2, (1 << 32) - 1, 0, 1]


class TestRepeated:
    def test_each_address_runs_16_times(self):
        keys = repeated_addresses(160, repeat=16)
        for i in range(0, 160, 16):
            block = set(keys[i : i + 16].tolist())
            assert len(block) == 1

    def test_partial_tail(self):
        keys = repeated_addresses(20, repeat=16)
        assert len(keys) == 20
        assert len(set(keys[:16].tolist())) == 1

    def test_distinct_across_blocks(self):
        keys = repeated_addresses(320, repeat=16)
        firsts = {int(keys[i]) for i in range(0, 320, 16)}
        assert len(firsts) == 20


class TestRealTrace:
    def _rib(self):
        rib, _ = generate_table(2000, 20, seed=77, igp_fraction=0.1)
        return rib

    def test_length_and_dtype(self):
        trace = real_trace(self._rib(), 5000, seed=1)
        assert len(trace) == 5000 and trace.dtype == np.uint64

    def test_pool_is_limited(self):
        trace = real_trace(self._rib(), 15_000, seed=2)
        distinct = len(set(trace.tolist()))
        assert distinct <= 15_000 // 150 + 1

    def test_destinations_fall_in_routed_space(self):
        rib = self._rib()
        trace = real_trace(rib, 2000, seed=3)
        from repro.net.values import NO_ROUTE

        hits = sum(1 for key in trace[:500] if rib.lookup(int(key)) != NO_ROUTE)
        assert hits == 500

    def test_deep_bias_shifts_depth_mix(self):
        """Section 4.7: trace traffic needs more deep lookups than uniform
        random — the generator's bias parameter controls that."""
        rib = self._rib()
        shallow = real_trace(rib, 3000, seed=4, deep_bias=0.01)
        deep = real_trace(rib, 3000, seed=4, deep_bias=50.0)

        def deep_fraction(keys):
            n = 0
            for key in keys[:1000]:
                _, _, depth = rib.lookup_with_depth(int(key))
                if depth > 18:
                    n += 1
            return n / 1000

        assert deep_fraction(deep) > deep_fraction(shallow)

    def test_deterministic(self):
        rib = self._rib()
        a = real_trace(rib, 1000, seed=9)
        b = real_trace(rib, 1000, seed=9)
        assert (a == b).all()

    def test_empty_rib_falls_back(self):
        from repro.net.rib import Rib

        trace = real_trace(Rib(), 100, seed=1)
        assert len(trace) == 100


class TestRandomV6:
    def test_inside_2000_8(self):
        keys = random_addresses_v6(200)
        assert all(key >> 120 == 0x20 for key in keys)

    def test_width(self):
        keys = random_addresses_v6(100)
        assert all(0 <= key < (1 << 128) for key in keys)

    def test_deterministic(self):
        assert random_addresses_v6(50, seed=3) == random_addresses_v6(50, seed=3)
