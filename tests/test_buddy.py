"""Unit and property tests for the buddy allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import allocator_state

from repro.errors import RestoreRefused
from repro.mem.buddy import BuddyAllocator, OutOfMemory


class TestBasics:
    def test_alloc_rounds_to_power_of_two(self):
        a = BuddyAllocator(capacity=64)
        offset = a.alloc(3)
        assert a.block_size(offset) == 4

    def test_alloc_exact_power(self):
        a = BuddyAllocator(capacity=64)
        offset = a.alloc(8)
        assert a.block_size(offset) == 8

    def test_natural_alignment(self):
        a = BuddyAllocator(capacity=64)
        for size in (1, 2, 4, 8, 16):
            offset = a.alloc(size)
            assert offset % a.block_size(offset) == 0

    def test_blocks_do_not_overlap(self):
        a = BuddyAllocator(capacity=64)
        spans = []
        for _ in range(8):
            offset = a.alloc(5)  # rounds to 8
            spans.append((offset, offset + 8))
        spans.sort()
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_used_slots_accounting(self):
        a = BuddyAllocator(capacity=64)
        x = a.alloc(4)
        assert a.used_slots == 4
        a.free(x)
        assert a.used_slots == 0

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            BuddyAllocator().alloc(0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            BuddyAllocator(capacity=0)


class TestFree:
    def test_free_then_realloc_reuses(self):
        a = BuddyAllocator(capacity=16, auto_grow=False)
        x = a.alloc(16)
        a.free(x)
        y = a.alloc(16)
        assert y == x

    def test_coalescing_restores_full_block(self):
        a = BuddyAllocator(capacity=16, auto_grow=False)
        offsets = [a.alloc(1) for _ in range(16)]
        for offset in offsets:
            a.free(offset)
        # If buddies coalesced all the way back up, a 16-slot block fits.
        assert a.alloc(16) == 0

    def test_double_free_raises(self):
        a = BuddyAllocator(capacity=16)
        x = a.alloc(2)
        a.free(x)
        with pytest.raises(ValueError):
            a.free(x)

    def test_free_unknown_offset_raises(self):
        with pytest.raises(ValueError):
            BuddyAllocator(capacity=16).free(3)


class TestGrowth:
    def test_grows_when_exhausted(self):
        a = BuddyAllocator(capacity=8)
        offsets = [a.alloc(8) for _ in range(4)]
        assert len(set(offsets)) == 4
        assert a.capacity >= 32
        assert a.grow_count >= 2

    def test_oom_when_growth_disabled(self):
        a = BuddyAllocator(capacity=8, auto_grow=False)
        a.alloc(8)
        with pytest.raises(OutOfMemory):
            a.alloc(1)

    def test_grow_preserves_live_blocks(self):
        a = BuddyAllocator(capacity=8)
        x = a.alloc(8)
        y = a.alloc(8)  # forces growth
        assert x != y
        assert a.is_live(x) and a.is_live(y)
        a.check_invariants()

    def test_alloc_larger_than_capacity(self):
        a = BuddyAllocator(capacity=8)
        offset = a.alloc(100)  # rounds to 128
        assert a.block_size(offset) == 128


class TestIntrospection:
    def test_live_blocks(self):
        a = BuddyAllocator(capacity=32)
        x = a.alloc(4)
        blocks = a.live_blocks()
        assert blocks[x] == 4

    def test_free_slots(self):
        a = BuddyAllocator(capacity=32, auto_grow=False)
        a.alloc(8)
        assert a.free_slots() == 24

    def test_counters(self):
        a = BuddyAllocator(capacity=32)
        x = a.alloc(2)
        a.free(x)
        assert a.alloc_count == 1 and a.free_count == 1


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=20)),
            min_size=1,
            max_size=80,
        )
    )
    def test_random_alloc_free_sequences(self, ops):
        """Any alloc/free interleaving preserves the allocator invariants:
        natural alignment, no overlap, no lost slots."""
        a = BuddyAllocator(capacity=32)
        live = []
        for is_alloc, size in ops:
            if is_alloc or not live:
                live.append(a.alloc(size))
            else:
                a.free(live.pop(size % len(live)))
            a.check_invariants()
        for offset in live:
            a.free(offset)
        a.check_invariants()
        assert a.used_slots == 0


class TestRestorePoint:
    """snapshot()/restore(): an O(1) point plus a log of the allocations
    made since it, undone exactly (see docs/ROBUSTNESS.md)."""

    @settings(max_examples=80, deadline=None)
    @given(
        history=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=20)),
            max_size=60,
        ),
        staged=st.lists(st.integers(min_value=1, max_value=70), max_size=12),
    )
    def test_restore_returns_the_exact_state(self, history, staged):
        a = BuddyAllocator(capacity=16)
        live = []
        for is_alloc, size in history:
            if is_alloc or not live:
                live.append(a.alloc(size))
            else:
                a.free(live.pop(size % len(live)))
        before = allocator_state(a)
        point = a.snapshot()
        for size in staged:  # sizes up to 70 force grows past capacity 16
            a.alloc(size)
        a.restore(point)
        assert allocator_state(a) == before
        a.check_invariants()

    def test_capacity_shrinks_after_rolled_back_grow(self):
        a = BuddyAllocator(capacity=16)
        a.alloc(8)
        before = allocator_state(a)
        point = a.snapshot()
        a.alloc(8)
        a.alloc(32)
        assert a.capacity == 64 and a.grow_count == 2
        a.restore(point)
        assert a.capacity == 16 and a.grow_count == 0
        assert allocator_state(a) == before

    def test_grow_of_an_empty_space_restores(self):
        a = BuddyAllocator(capacity=16)
        before = allocator_state(a)
        point = a.snapshot()
        a.alloc(100)
        a.restore(point)
        assert allocator_state(a) == before

    def test_refuses_after_a_free(self):
        a = BuddyAllocator(capacity=16)
        x = a.alloc(4)
        point = a.snapshot()
        a.alloc(2)
        a.free(x)
        with pytest.raises(RestoreRefused, match="freed since"):
            a.restore(point)

    def test_refuses_a_stale_point(self):
        a = BuddyAllocator(capacity=16)
        old = a.snapshot()
        a.snapshot()  # supersedes ``old``
        with pytest.raises(RestoreRefused, match="superseded"):
            a.restore(old)
        with pytest.raises(RestoreRefused, match="superseded"):
            BuddyAllocator(capacity=16).restore(a.snapshot())

    def test_refuses_a_closed_point(self):
        a = BuddyAllocator(capacity=16)
        point = a.snapshot()
        a.restore(point)
        with pytest.raises(RestoreRefused, match="closed"):
            a.restore(point)
        committed = a.snapshot()
        a.close(committed)
        with pytest.raises(RestoreRefused, match="closed"):
            a.restore(committed)

    def test_point_holds_only_the_allocation_log(self):
        a = BuddyAllocator(capacity=1024)
        for _ in range(200):
            a.alloc(2)
        point = a.snapshot()
        assert point.log == []
        made = [a.alloc(3) for _ in range(5)]
        assert point.log == made
        a.close(point)
        a.alloc(1)  # a closed point records nothing more
        assert len(point.log) == 5


class TestAllocMany:
    """alloc_many(): one bitmask pass that must equal sequential alloc()."""

    @settings(max_examples=120, deadline=None)
    @given(
        capacity=st.sampled_from((1, 16, 64)),
        first=st.lists(st.integers(min_value=1, max_value=70), max_size=8),
        sizes=st.lists(st.integers(min_value=1, max_value=300), max_size=80),
    )
    def test_matches_sequential_alloc(self, capacity, first, sizes):
        sequential, bulk = BuddyAllocator(capacity), BuddyAllocator(capacity)
        for size in first:  # a used, never-freed allocator qualifies too
            sequential.alloc(size)
            bulk.alloc(size)
        point = sequential.snapshot(), bulk.snapshot()
        offsets, grows = [], []
        for i, size in enumerate(sizes):
            before = sequential.capacity
            offsets.append(sequential.alloc(size))
            if sequential.capacity != before:
                grows.append((i, sequential.capacity))
        assert bulk.alloc_many(sizes) == (offsets, grows)
        assert allocator_state(bulk) == allocator_state(sequential)
        assert point[1].log == point[0].log
        bulk.check_invariants()

    def test_refuses_split_free_lists(self):
        a = BuddyAllocator(capacity=16)
        x, _, y, _ = (a.alloc(1) for _ in range(4))
        a.free(x)
        a.free(y)  # two free order-0 blocks, 0 and 2
        with pytest.raises(ValueError, match="at most one free block"):
            a.alloc_many([1])

    def test_non_positive_size_allocates_nothing(self):
        a = BuddyAllocator(capacity=16)
        before = allocator_state(a)
        with pytest.raises(ValueError, match="positive"):
            a.alloc_many([1, 0])
        assert allocator_state(a) == before

    def test_no_growth_raises_out_of_memory(self):
        sequential = BuddyAllocator(capacity=8, auto_grow=False)
        bulk = BuddyAllocator(capacity=8, auto_grow=False)
        sequential.alloc(4)
        sequential.alloc(2)
        with pytest.raises(OutOfMemory):
            sequential.alloc(4)
        with pytest.raises(OutOfMemory):
            bulk.alloc_many([4, 2, 4])
        assert allocator_state(bulk) == allocator_state(sequential)
