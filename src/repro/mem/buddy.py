"""A Knowlton buddy memory allocator.

The paper manages Poptrie's contiguous internal-node and leaf arrays with a
buddy allocator (Section 3, citing Knowlton 1965) because the incremental
update path (Section 3.5) repeatedly allocates and frees variable-length
*contiguous* runs of node slots; the buddy system bounds fragmentation and
makes coalescing O(log n).

This implementation allocates *slots* (array indices), not bytes: the unit
of allocation is one element of whichever array the allocator manages.
Blocks are powers of two, naturally aligned (a block of size ``2^k`` starts
at an offset that is a multiple of ``2^k``), and freeing coalesces with the
buddy block recursively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.errors import RestoreRefused
from repro.robust.faults import fault_point


class OutOfMemory(Exception):
    """Raised when an allocation cannot be satisfied and growth is disabled."""


@dataclass(eq=False)
class RestorePoint:
    """An O(1) restore point of a :class:`BuddyAllocator`.

    Taken by :meth:`BuddyAllocator.snapshot` before a transactional
    update.  It holds the capacity order, the counters and the allocation
    log opened at that moment — no per-block state.  While the point is
    open every :meth:`BuddyAllocator.alloc` appends its offset to ``log``,
    so :meth:`BuddyAllocator.restore` costs O(allocations made since the
    point), not O(live blocks).
    """

    order: int
    used_slots: int
    alloc_count: int
    free_count: int
    grow_count: int
    high_water: int
    log: List[int] = field(default_factory=list)


def _ceil_log2(n: int) -> int:
    if n <= 1:
        return 0
    return (n - 1).bit_length()


class BuddyAllocator:
    """Buddy allocator over a slot index space of power-of-two capacity.

    >>> a = BuddyAllocator(capacity=16)
    >>> x = a.alloc(3)          # rounds to 4 slots
    >>> y = a.alloc(5)          # rounds to 8 slots
    >>> a.free(x)
    >>> a.free(y)
    >>> a.used_slots
    0
    """

    def __init__(self, capacity: int = 64, auto_grow: bool = True) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._order = _ceil_log2(capacity)
        self.capacity = 1 << self._order
        self.auto_grow = auto_grow
        # free_lists[k] holds offsets of free blocks of size 2^k.
        self._free_lists: List[Set[int]] = [set() for _ in range(self._order + 1)]
        self._free_lists[self._order].add(0)
        # offset -> order of each live allocation.
        self._live: Dict[int, int] = {}
        self.used_slots = 0
        #: Cumulative counters; the update benchmarks report allocator churn.
        self.alloc_count = 0
        self.free_count = 0
        self.grow_count = 0
        #: Peak used_slots ever observed (the high-water mark obs exports).
        self.high_water = 0
        # The open restore point, whose log records every alloc() offset.
        self._point: RestorePoint | None = None

    # -- queries -------------------------------------------------------------

    def block_size(self, offset: int) -> int:
        """Slot count of the live block at ``offset``."""
        return 1 << self._live[offset]

    def is_live(self, offset: int) -> bool:
        return offset in self._live

    def live_blocks(self) -> Dict[int, int]:
        """Mapping of offset -> size for all live blocks (copy)."""
        return {off: 1 << order for off, order in self._live.items()}

    def free_slots(self) -> int:
        return self.capacity - self.used_slots

    def largest_free_block(self) -> int:
        """Slot count of the biggest currently-free block (0 when full)."""
        for k in range(self._order, -1, -1):
            if self._free_lists[k]:
                return 1 << k
        return 0

    def fragmentation(self) -> float:
        """External fragmentation in [0, 1]: the fraction of free space
        that cannot be served as one contiguous block.  0 when the free
        space is one block (or there is none)."""
        free = self.free_slots()
        if free <= 0:
            return 0.0
        return 1.0 - self.largest_free_block() / free

    def stats(self) -> Dict[str, float]:
        """The allocator's observability snapshot (see docs/OBSERVABILITY.md)."""
        return {
            "capacity": self.capacity,
            "used_slots": self.used_slots,
            "free_slots": self.free_slots(),
            "high_water": self.high_water,
            "largest_free_block": self.largest_free_block(),
            "fragmentation": self.fragmentation(),
            "allocs": self.alloc_count,
            "frees": self.free_count,
            "grows": self.grow_count,
        }

    def publish_obs(self, pool: str, slot_bytes: int = 1) -> None:
        """Refresh this allocator's gauges in the active metrics registry.

        ``pool`` labels the series (e.g. ``"poptrie.nodes"``);
        ``slot_bytes`` converts slot counts into the exported
        ``repro_allocator_live_bytes`` gauge.  A no-op while
        observability is disabled.
        """
        from repro import obs

        if not obs.enabled():
            return
        reg = obs.registry()
        labels = {"pool": pool}
        gauges = {
            "repro_allocator_capacity_slots": (
                "Managed slot capacity.", self.capacity),
            "repro_allocator_used_slots": (
                "Slots in live blocks.", self.used_slots),
            "repro_allocator_high_water_slots": (
                "Peak used slots.", self.high_water),
            "repro_allocator_fragmentation_ratio": (
                "Free space not servable as one block.", self.fragmentation()),
            "repro_allocator_live_bytes": (
                "Bytes in live blocks.", self.used_slots * slot_bytes),
            "repro_allocator_allocs": (
                "Cumulative alloc() calls.", self.alloc_count),
            "repro_allocator_frees": (
                "Cumulative free() calls.", self.free_count),
            "repro_allocator_grows": (
                "Cumulative capacity doublings.", self.grow_count),
        }
        for name, (help_text, value) in gauges.items():
            reg.gauge(name, help_text, **labels).set(value)

    # -- allocation ------------------------------------------------------------

    def alloc(self, size: int) -> int:
        """Allocate a naturally aligned block of at least ``size`` slots.

        Returns the starting slot offset.  Grows the managed space (doubling)
        when needed and permitted, else raises :class:`OutOfMemory`.
        """
        fault_point("alloc")
        if size <= 0:
            raise ValueError("size must be positive")
        order = _ceil_log2(size)
        while True:
            offset = self._take(order)
            if offset is not None:
                self._live[offset] = order
                self.used_slots += 1 << order
                if self.used_slots > self.high_water:
                    self.high_water = self.used_slots
                self.alloc_count += 1
                if self._point is not None:
                    self._point.log.append(offset)
                return offset
            if not self.auto_grow:
                raise OutOfMemory(f"cannot allocate {size} slots")
            self._grow(max(order, self._order + 1))

    def alloc_many(
        self, sizes: List[int]
    ) -> Tuple[List[int], List[Tuple[int, int]]]:
        """Allocate one block per size, in order, exactly as that many
        :meth:`alloc` calls would: the same offsets, and afterwards the
        same live blocks, free lists, capacity and counters.

        It needs at most one free block per order, which holds until the
        first :meth:`free`: a split only refills orders that were empty,
        and a grow adds one block at the old top order.  The free lists
        are then the binary digits of the free slot count, so each
        request is a few integer operations on that bitmask.  Returns the
        offsets and, for each request that grew the space, ``(request
        index, capacity after it)``.  Raises before allocating anything
        when a size is not positive.  Visits no fault site: a caller
        replaying another path's allocation order (the Poptrie compile)
        accounts for its ``alloc`` visits itself.
        """
        if any(len(blocks) > 1 for blocks in self._free_lists):
            raise ValueError("alloc_many needs at most one free block per order")
        orders = [(size - 1).bit_length() for size in sizes]
        if orders and min(sizes) <= 0:
            raise ValueError("size must be positive")
        top = self._order
        mask = 0  # bit j set: a free block of 2^j slots, at free[j]
        free = [0] * (top + 1)
        for order, blocks in enumerate(self._free_lists):
            if blocks:
                free[order] = next(iter(blocks))
                mask |= 1 << order
        offsets: List[int] = []
        grows: List[Tuple[int, int]] = []
        append = offsets.append
        try:
            for i, order in enumerate(orders):
                avail = mask >> order
                if not avail:
                    if not self.auto_grow:
                        raise OutOfMemory(f"cannot allocate {sizes[i]} slots")
                    while not mask >> order:  # as _grow, one doubling a turn
                        free.append(0)
                        if mask == 1 << top:  # all free: the halves coalesce
                            mask <<= 1
                        else:
                            mask |= 1 << top
                            free[top] = 1 << top
                        top += 1
                        self.grow_count += 1
                    grows.append((i, 1 << top))
                    avail = mask >> order
                low = avail & -avail
                if low == 1:
                    offset = free[order]
                else:  # split, leaving the high halves free
                    j = order + low.bit_length() - 1
                    offset = free[j]
                    for split in range(order, j):
                        free[split] = offset + (1 << split)
                mask -= 1 << order
                append(offset)
        finally:
            self._order, self.capacity = top, 1 << top
            self._free_lists = [
                {free[order]} if mask >> order & 1 else set()
                for order in range(top + 1)
            ]
            self._live.update(zip(offsets, orders))
            self.used_slots = self.capacity - mask
            self.high_water = max(self.high_water, self.used_slots)
            self.alloc_count += len(offsets)
            if self._point is not None:
                self._point.log.extend(offsets)
        return offsets, grows

    def free(self, offset: int) -> None:
        """Free the block at ``offset``, coalescing with free buddies."""
        order = self._live.pop(offset, None)
        if order is None:
            raise ValueError(f"double free or unknown block at offset {offset}")
        self.used_slots -= 1 << order
        self.free_count += 1
        # Coalesce upward while the buddy is also free.
        while order < self._order:
            buddy = offset ^ (1 << order)
            if buddy not in self._free_lists[order]:
                break
            self._free_lists[order].discard(buddy)
            offset = min(offset, buddy)
            order += 1
        self._free_lists[order].add(offset)

    # -- transactional restore points ----------------------------------------

    def snapshot(self) -> RestorePoint:
        """Open an O(1) restore point; it supersedes any open one.

        From now until :meth:`restore` or :meth:`close`, every allocation
        is logged on the point.
        """
        self._point = RestorePoint(
            order=self._order,
            used_slots=self.used_slots,
            alloc_count=self.alloc_count,
            free_count=self.free_count,
            grow_count=self.grow_count,
            high_water=self.high_water,
        )
        return self._point

    def restore(self, point: RestorePoint) -> None:
        """Return the allocator to the state it had at ``point``.

        Frees the logged allocations newest-first, undoes the capacity
        doublings made since the point (the arrays an owner extended to
        match simply stay larger than the capacity, which is harmless),
        resets the counters and closes the point.  Eager coalescing
        makes the free lists come back exactly: they are determined by
        the set of live blocks.  That argument needs the live set itself
        to be unchanged apart from the log, so restore refuses with
        :class:`~repro.errors.RestoreRefused` when a block was freed
        since the point, or when the point is closed or superseded.
        """
        if self._point is not point:
            raise RestoreRefused(
                "restore point is closed, superseded by a newer one, or "
                "belongs to another allocator"
            )
        if self.free_count != point.free_count:
            self.close(point)
            raise RestoreRefused(
                f"{self.free_count - point.free_count} block(s) freed since "
                "the restore point; the allocation log cannot undo frees"
            )
        for offset in reversed(point.log):
            self.free(offset)
        while self._order > point.order:
            self._shrink()
        self.used_slots = point.used_slots
        self.alloc_count = point.alloc_count
        self.free_count = point.free_count
        self.grow_count = point.grow_count
        self.high_water = point.high_water
        self.close(point)

    def close(self, point: RestorePoint) -> None:
        """Close ``point`` without rolling back: its log stops recording."""
        if self._point is point:
            self._point = None

    # -- internals ---------------------------------------------------------

    def _take(self, order: int) -> int | None:
        """Pop a block of exactly 2^order slots, splitting larger ones."""
        if order > self._order:
            return None
        for k in range(order, self._order + 1):
            if self._free_lists[k]:
                offset = min(self._free_lists[k])
                self._free_lists[k].discard(offset)
                # Split down to the requested order, freeing the high halves.
                while k > order:
                    k -= 1
                    self._free_lists[k].add(offset + (1 << k))
                return offset
        return None

    def _grow(self, new_order: int) -> None:
        """Double the slot space until it reaches ``2^new_order`` slots.

        The new upper half becomes one free block of the old capacity;
        when the old space is entirely free the two halves coalesce, so
        the free lists stay the canonical (maximal-block) decomposition
        of the free space that :meth:`restore` relies on.
        """
        while self._order < new_order:
            self._free_lists.append(set())
            top = self._free_lists[self._order]
            if 0 in top:
                top.discard(0)
                self._free_lists[self._order + 1].add(0)
            else:
                top.add(self.capacity)
            self._order += 1
            self.capacity = 1 << self._order
            self.grow_count += 1

    def _shrink(self) -> None:
        """Undo one doubling; the upper half must be entirely free."""
        half = self._order - 1
        if (1 << half) in self._free_lists[half]:
            self._free_lists[half].discard(1 << half)
        elif 0 in self._free_lists[self._order]:
            self._free_lists[self._order].discard(0)
            self._free_lists[half].add(0)
        else:
            raise RestoreRefused("upper half still holds live blocks")
        self._free_lists.pop()
        self._order = half
        self.capacity = 1 << half

    # -- invariant checking (used by the property tests) ----------------------

    def check_invariants(self) -> None:
        """Assert structural invariants; raises AssertionError on violation."""
        seen: List[tuple] = []
        for offset, order in self._live.items():
            size = 1 << order
            assert offset % size == 0, "live block not naturally aligned"
            seen.append((offset, offset + size))
        for k, blocks in enumerate(self._free_lists):
            for offset in blocks:
                size = 1 << k
                assert offset % size == 0, "free block not naturally aligned"
                seen.append((offset, offset + size))
        seen.sort()
        total = 0
        for (start, end), nxt in zip(seen, seen[1:] + [(self.capacity, None)]):
            assert end <= nxt[0], "overlapping blocks"
            total += end - start
        assert total == self.capacity, "lost or duplicated slots"


def allocator_state(alloc: BuddyAllocator) -> tuple:
    """The complete state of a BuddyAllocator: capacity, every live block
    with its order, every free list and all counters."""
    return (
        alloc.capacity,
        sorted(alloc._live.items()),
        [sorted(blocks) for blocks in alloc._free_lists],
        alloc.used_slots,
        alloc.alloc_count,
        alloc.free_count,
        alloc.grow_count,
        alloc.high_water,
    )
