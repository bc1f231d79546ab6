"""The binary radix tree as a lookup structure (the paper's "Radix" rows).

This is a thin adapter over :class:`repro.net.rib.Rib` that adds the
:class:`~repro.lookup.base.LookupStructure` interface and — for the cycle
simulator — per-node virtual addresses.  Node ids are numbered in
depth-first order at adaptation time, approximating the allocation locality a C
implementation would get from a pool allocator; the defining performance
property (one dependent memory access per bit of depth) is preserved
regardless of numbering.
"""

from __future__ import annotations

from typing import Dict

from repro.lookup.base import LookupStructure, NoOptions
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import NODE_BYTES, ROOT, Rib
from repro.net.values import NO_ROUTE

#: Per-node work: bit extract, compare, branch, pointer chase.
_NODE_INSTRUCTIONS = 4


@register("Radix")
class RadixLookup(LookupStructure):
    """Longest-prefix match by walking the binary radix tree."""

    name = "Radix"
    walks_rib = True

    def __init__(self, rib: Rib) -> None:
        self.rib = rib
        self.width = rib.width
        self.memmap = MemoryMap()
        self._numbering: Dict[int, int] = {}
        self._number_nodes()
        self._region = self.memmap.add_region(
            "radix.nodes", NODE_BYTES, max(len(self._numbering), 1)
        )

    @classmethod
    def from_rib(cls, rib: Rib, config=None, **options) -> "RadixLookup":
        NoOptions.resolve(config, options)
        return cls(rib)

    def _number_nodes(self) -> None:
        left, right = self.rib.left, self.rib.right
        stack = [ROOT]
        while stack:
            node = stack.pop()
            self._numbering[node] = len(self._numbering)
            if right[node]:
                stack.append(right[node])
            if left[node]:
                stack.append(left[node])

    # -- LookupStructure ----------------------------------------------------

    def lookup(self, key: int) -> int:
        return self.rib.lookup(key)

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        left, right, route = self.rib.left, self.rib.right, self.rib.route
        node = ROOT
        best = NO_ROUTE
        shift = self.width - 1
        numbering = self._numbering
        region = self._region
        while True:
            # setdefault: nodes inserted after adaptation get fresh numbers
            # (a pruned node's reused id keeps its own), exactly as a pool
            # allocator would place fresh allocations.
            trace.read(region, numbering.setdefault(node, len(numbering)))
            trace.work(_NODE_INSTRUCTIONS)
            trace.mispredict(0.05)  # bit-direction branch, mildly unpredictable
            if route[node] != NO_ROUTE:
                best = route[node]
            if shift < 0:
                return best
            node = (right if (key >> shift) & 1 else left)[node]
            if not node:
                return best
            shift -= 1

    def memory_bytes(self) -> int:
        return self.rib.memory_bytes()
