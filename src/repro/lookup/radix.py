"""The binary radix tree as a lookup structure (the paper's "Radix" rows).

This is a thin adapter over :class:`repro.net.rib.Rib` that adds the
:class:`~repro.lookup.base.LookupStructure` interface and — for the cycle
simulator — per-node virtual addresses.  Nodes are numbered in depth-first
order at adaptation time, approximating the allocation locality a C
implementation would get from a pool allocator; the defining performance
property (one dependent memory access per bit of depth) is preserved
regardless of numbering.
"""

from __future__ import annotations

from typing import Dict

from repro.lookup.base import LookupStructure, NoOptions
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import NODE_BYTES, Rib
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
        stack = [self.rib.root]
        while stack:
            node = stack.pop()
            self._numbering[id(node)] = len(self._numbering)
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    # -- LookupStructure ----------------------------------------------------

    def lookup(self, key: int) -> int:
        return self.rib.lookup(key)

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        node = self.rib.root
        best = NO_ROUTE
        shift = self.width - 1
        numbering = self._numbering
        region = self._region
        while node is not None:
            # setdefault: nodes inserted after adaptation get fresh numbers,
            # exactly as a pool allocator would place fresh allocations.
            trace.read(region, numbering.setdefault(id(node), len(numbering)))
            trace.work(_NODE_INSTRUCTIONS)
            trace.mispredict(0.05)  # bit-direction branch, mildly unpredictable
            if node.route != NO_ROUTE:
                best = node.route
            if shift < 0:
                break
            node = node.child((key >> shift) & 1)
            shift -= 1
        return best

    def memory_bytes(self) -> int:
        return self.rib.memory_bytes()
