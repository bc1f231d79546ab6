"""The plain 2^k-ary multiway trie with controlled prefix expansion.

This is the structure of the paper's Figure 1 — the starting point
Poptrie compresses (Srinivasan & Varghese's controlled prefix expansion,
cited in Section 2).  Every node stores a full 2^k descendant array whose
entries each hold a next hop *and* a child pointer, so there is no
bit-vector indirection and no compression: lookups are simple and fast
per level, but the memory footprint is k-times-expanded and far exceeds
any cache for real tables.

Included as the natural ablation baseline: comparing it against Poptrie
on the same table isolates what the vector/leafvec compression buys
(Table 2's story told structurally).
"""

from __future__ import annotations

from dataclasses import dataclass

from array import array
from typing import Optional

from repro.core.builder import expand_chunk
from repro.lookup.base import LookupStructure, StructureConfig, check_fib_capacity
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import ROOT, Rib
from repro.net.values import NO_ROUTE

_NODE_INSTRUCTIONS = 3


@dataclass(frozen=True)
class MultibitConfig(StructureConfig):
    """Build options: ``k``, the stride in bits (2^k-ary trie)."""

    k: int = 6


@register("Multibit", k=6)
class MultibitTrie(LookupStructure):
    """Uncompressed 2^k-ary trie (k = 6 by default, like Poptrie)."""

    name = "Multibit"
    fib_limit = 0xFFFF  # 16-bit next-hop entries

    def __init__(self, k: int, width: int) -> None:
        if not 1 <= k <= 8:
            raise ValueError("k must be in 1..8")
        self.k = k
        self.width = width
        self.name = f"Multibit (k={k})"
        slots = 1 << k
        self._slots = slots
        # Parallel arrays: per node, `slots` next hops and child indices
        # (0 = no child; node 0 is the root so 0 can never be a child).
        self.nexthops = array("H")
        self.children = array("I")
        levels = -(-width // k)
        self._padded_width = k * levels
        self._pad = self._padded_width - width
        self.memmap = MemoryMap()
        self._region = None

    @classmethod
    def from_rib(cls, rib: Rib, config=None, **options) -> "MultibitTrie":
        config = MultibitConfig.resolve(config, options)
        check_fib_capacity(cls, rib.max_fib_index())
        trie = cls(config.k, rib.width)
        trie._append_node()
        trie._build(rib, ROOT, 0, NO_ROUTE)
        trie._region = trie.memmap.add_region(
            "multibit.slots",
            6,  # 2 bytes next hop + 4 bytes child per slot
            max(len(trie.nexthops), 1),
        )
        return trie

    def _append_node(self) -> int:
        index = len(self.nexthops) // self._slots
        self.nexthops.extend([NO_ROUTE] * self._slots)
        self.children.extend([0] * self._slots)
        return index

    def _build(
        self, rib: Rib, rnode: Optional[int], node: int, inherited: int
    ) -> None:
        """Controlled prefix expansion of one chunk, recursing into
        children — the same walk as the Poptrie builder but materialising
        every slot."""
        base = node * self._slots
        for v, slot in enumerate(expand_chunk(rib, rnode, inherited, self.k)):
            if isinstance(slot, tuple):
                child_rnode, child_inherited = slot
                # Lookups never end on a slot with a child; its next hop
                # is the inherited one, kept for completeness.
                self.nexthops[base + v] = child_inherited
                child = self._append_node()
                self.children[base + v] = child
                self._build(rib, child_rnode, child, child_inherited)
            else:
                self.nexthops[base + v] = slot

    # -- LookupStructure ---------------------------------------------------

    def lookup(self, key: int) -> int:
        keyp = key << self._pad
        shift = self._padded_width - self.k
        mask = self._slots - 1
        node = 0
        while True:
            slot = node * self._slots + ((keyp >> shift) & mask)
            child = self.children[slot]
            if not child:
                return self.nexthops[slot]
            node = child
            shift -= self.k

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        keyp = key << self._pad
        shift = self._padded_width - self.k
        mask = self._slots - 1
        node = 0
        while True:
            v = (keyp >> shift) & mask
            slot = node * self._slots + v
            trace.read(self._region, slot)
            trace.work(_NODE_INSTRUCTIONS)
            child = self.children[slot]
            if not child:
                return self.nexthops[slot]
            trace.mispredict(0.1)
            node = child
            shift -= self.k

    def memory_bytes(self) -> int:
        return 2 * len(self.nexthops) + 4 * len(self.children)

    @property
    def node_count(self) -> int:
        return len(self.nexthops) // self._slots
