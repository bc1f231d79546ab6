"""Tree BitMap (Eatherton, Varghese, Dittia — CCR 2004).

A multibit trie whose nodes carry two bitmaps: the *external* bitmap marks
which of the 2^t children exist, and the *internal* bitmap marks which
prefixes of length 0..t-1 live inside the node (bit ``2^l - 1 + value``
for a length-``l`` prefix).  Children and per-node results are stored in
contiguous arrays indexed by population counts over the bitmaps — the
technique Poptrie borrows for its descendant array.

The paper evaluates the original 16-ary (stride 4) variant and a 64-ary
(stride 6) variant made possible by using the ``popcnt`` instruction
instead of the original's lookup tables (Section 4, Table 3).  Both are
available here through the ``stride`` option.

Why it is slower than Poptrie despite the same popcount trick (Section
4.5): finding the best internal prefix within a node is O(t) bit probes
per level, and the result fetch needs an extra indirection, while Poptrie
resolves a leaf in O(1) with one popcount.
"""

from __future__ import annotations

from dataclasses import dataclass

from array import array
from typing import List, Optional, Tuple

from repro.lookup.base import LookupStructure, StructureConfig, check_fib_capacity
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import ROOT, Rib
from repro.net.values import NO_ROUTE


class _TmpNode:
    __slots__ = ("intbitmap", "extbitmap", "results", "children")

    def __init__(self) -> None:
        self.intbitmap = 0
        self.extbitmap = 0
        self.results: List[int] = []
        self.children: List[_TmpNode] = []


@dataclass(frozen=True)
class TreeBitmapConfig(StructureConfig):
    """Build options: ``stride`` (4 = original 16-ary, 6 = 64-ary)."""

    stride: int = 4


@register("Tree BitMap", stride=4)
class TreeBitmap(LookupStructure):
    """Tree BitMap with configurable stride (4 = original, 6 = 64-ary)."""

    name = "Tree BitMap"
    fib_limit = 0xFFFF  # 16-bit next-hop entries

    def __init__(self, stride: int, width: int) -> None:
        if not 1 <= stride <= 6:
            raise ValueError("stride must be in 1..6 (bitmaps must fit 64 bits)")
        self.stride = stride
        self.width = width
        self.name = "Tree BitMap" if stride == 4 else f"Tree BitMap ({1 << stride}-ary)"
        self.ext = array("Q")
        self.intb = array("Q")
        self.child_base = array("I")
        self.result_base = array("I")
        self.results = array("H")
        # Node byte size: two bitmaps + two base pointers.  The 16-ary
        # original packs its 16+15 bitmap bits tighter; we account 12 bytes
        # for it and 24 for the 64-ary variant, matching Table 3's ratios.
        self.node_bytes = 12 if stride == 4 else 8 + 8 + 4 + 4
        self.memmap = MemoryMap()
        self._node_region: Optional[object] = None
        self._result_region: Optional[object] = None

    @classmethod
    def from_rib(cls, rib: Rib, config=None, **options) -> "TreeBitmap":
        config = TreeBitmapConfig.resolve(config, options)
        check_fib_capacity(cls, rib.max_fib_index())
        tbm = cls(config.stride, rib.width)
        tmp_root = tbm._build_tmp(rib, ROOT)
        tbm._serialize(tmp_root)
        tbm._node_region = tbm.memmap.add_region(
            "tbm.nodes", tbm.node_bytes, max(len(tbm.ext), 1)
        )
        tbm._result_region = tbm.memmap.add_region(
            "tbm.results", 2, max(len(tbm.results), 1)
        )
        return tbm

    # -- construction ------------------------------------------------------

    def _build_tmp(self, rib: Rib, rnode: int) -> _TmpNode:
        t = self.stride
        left, right, routes = rib.left, rib.right, rib.route
        tmp = _TmpNode()
        found: List[Tuple[int, int]] = []  # (internal bit position, route)
        pending: List[Tuple[int, int]] = []  # (slot value, radix child)
        stack: List[Tuple[int, int, int]] = [(rnode, 0, 0)]
        while stack:
            node, depth, value = stack.pop()
            if depth == t:
                pending.append((value, node))
                continue
            if routes[node] != NO_ROUTE:
                found.append(((1 << depth) - 1 + value, routes[node]))
            if left[node]:
                stack.append((left[node], depth + 1, value << 1))
            if right[node]:
                stack.append((right[node], depth + 1, (value << 1) | 1))
        for bit, route in sorted(found):
            tmp.intbitmap |= 1 << bit
            tmp.results.append(route)
        for value, child in sorted(pending, key=lambda item: item[0]):
            tmp.extbitmap |= 1 << value
            tmp.children.append(self._build_tmp(rib, child))
        return tmp

    def _serialize(self, root: _TmpNode) -> None:
        """Lay nodes out breadth-first; each node's children contiguous."""
        self._append_node_slots(1)
        queue: List[Tuple[_TmpNode, int]] = [(root, 0)]
        cursor = 0
        while cursor < len(queue):
            tmp, at = queue[cursor]
            cursor += 1
            child_base = 0
            if tmp.children:
                child_base = self._append_node_slots(len(tmp.children))
                for i, child in enumerate(tmp.children):
                    queue.append((child, child_base + i))
            result_base = len(self.results)
            self.results.extend(tmp.results)
            self.ext[at] = tmp.extbitmap
            self.intb[at] = tmp.intbitmap
            self.child_base[at] = child_base
            self.result_base[at] = result_base

    def _append_node_slots(self, count: int) -> int:
        base = len(self.ext)
        self.ext.extend([0] * count)
        self.intb.extend([0] * count)
        self.child_base.extend([0] * count)
        self.result_base.extend([0] * count)
        return base

    # -- lookup --------------------------------------------------------------

    def _best_internal(self, index: int, v: int) -> Tuple[int, int]:
        """Longest internal prefix of chunk value ``v`` in node ``index``;
        returns ``(result_index, found)`` with ``found`` false if none."""
        intbitmap = self.intb[index]
        t = self.stride
        for length in range(t - 1, -1, -1):
            bit = (1 << length) - 1 + (v >> (t - length))
            if (intbitmap >> bit) & 1:
                rank = (intbitmap & ((2 << bit) - 1)).bit_count() - 1
                return self.result_base[index] + rank, True
        return 0, False

    def lookup(self, key: int) -> int:
        t = self.stride
        width = self.width
        index = 0
        offset = 0
        best = -1
        while True:
            if offset >= width:
                v = 0
            elif offset + t <= width:
                v = (key >> (width - offset - t)) & ((1 << t) - 1)
            else:
                v = (key << (offset + t - width)) & ((1 << t) - 1)
            result_index, found = self._best_internal(index, v)
            if found:
                best = result_index
            ext = self.ext[index]
            if not (ext >> v) & 1:
                break
            rank = (ext & ((2 << v) - 1)).bit_count() - 1
            index = self.child_base[index] + rank
            offset += t
        return self.results[best] if best >= 0 else NO_ROUTE

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        t = self.stride
        width = self.width
        index = 0
        offset = 0
        best = -1
        while True:
            trace.read(self._node_region, index)
            trace.work(3 + t)  # O(t) internal-bitmap probes per node
            trace.mispredict(0.3)  # data-dependent probe/descend branches
            if offset >= width:
                v = 0
            elif offset + t <= width:
                v = (key >> (width - offset - t)) & ((1 << t) - 1)
            else:
                v = (key << (offset + t - width)) & ((1 << t) - 1)
            result_index, found = self._best_internal(index, v)
            if found:
                best = result_index
            ext = self.ext[index]
            if not (ext >> v) & 1:
                break
            rank = (ext & ((2 << v) - 1)).bit_count() - 1
            index = self.child_base[index] + rank
            offset += t
        if best < 0:
            return NO_ROUTE
        trace.work(2)
        trace.read(self._result_region, best)
        return self.results[best]

    def memory_bytes(self) -> int:
        return self.node_bytes * len(self.ext) + 2 * len(self.results)


register("Tree BitMap (64-ary)", TreeBitmap, stride=6)
