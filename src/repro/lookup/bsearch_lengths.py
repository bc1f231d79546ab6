"""Binary search on prefix lengths (Waldvogel et al., SIGCOMM 1997).

Cited in the paper's Section 2: "Waldvogel et al. reduced the memory
access both for IPv4 and IPv6 routing table lookup using binary search on
prefix length."  One hash table per distinct prefix length; lookup binary
searches over the sorted lengths, probing the table at the midpoint
length with the key's prefix of that length:

- hit  → remember the entry's precomputed best-matching prefix (BMP) and
  search *longer*;
- miss → search *shorter*.

Correctness relies on *markers*: every prefix deposits, at each midpoint
length where the search for its own length would branch "longer", a
marker entry carrying the BMP at that point — so a miss really does mean
"nothing longer exists down this path", with no backtracking.

O(log W) hashed probes per lookup (5 for IPv4, 7 for IPv6) against the
radix tree's O(W); the trade is marker storage and update complexity —
one reason the paper's generation of structures moved on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.lookup.base import LookupStructure, NoOptions
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE

#: Hash-table entry: key (up to 16 bytes), BMP index, chain pointer.
ENTRY_BYTES = 16
_PROBE_INSTRUCTIONS = 5


@register("BSearch-Lengths")
class BinarySearchLengths(LookupStructure):
    """Waldvogel's scheme: per-length hash tables + markers + BMPs."""

    name = "BSearch-Lengths"

    def __init__(self, width: int) -> None:
        self.width = width
        self.lengths: List[int] = []
        #: length -> {prefix value (top `length` bits) -> BMP fib index}
        self.tables: Dict[int, Dict[int, int]] = {}
        self.marker_count = 0
        self.prefix_count = 0
        self.default = NO_ROUTE
        self.memmap = MemoryMap()
        self._region: Optional[object] = None

    @classmethod
    def from_rib(cls, rib: Rib, config=None, **options) -> "BinarySearchLengths":
        NoOptions.resolve(config, options)
        structure = cls(rib.width)
        routes = [(p, fib) for p, fib in rib.routes()]
        lengths = sorted({p.length for p, _ in routes if p.length > 0})
        structure.lengths = lengths
        structure.tables = {length: {} for length in lengths}
        for prefix, fib_index in routes:
            if prefix.length == 0:
                structure.default = fib_index

        # Real prefixes first: their BMP is themselves.
        for prefix, fib_index in routes:
            if prefix.length == 0:
                continue
            key = prefix.value >> (rib.width - prefix.length)
            structure.tables[prefix.length][key] = fib_index
            structure.prefix_count += 1

        # Markers along each prefix's binary-search path.  A marker's BMP
        # is the longest *real* prefix covering it (precomputed from the
        # RIB so lookups never backtrack).
        index_of = {length: i for i, length in enumerate(lengths)}
        for prefix, _ in routes:
            if prefix.length == 0:
                continue
            lo, hi = 0, len(lengths) - 1
            target = index_of[prefix.length]
            while lo <= hi:
                mid = (lo + hi) // 2
                if mid == target:
                    break
                if mid < target:
                    marker_len = lengths[mid]
                    key = prefix.value >> (rib.width - marker_len)
                    table = structure.tables[marker_len]
                    if key not in table:
                        from repro.net.prefix import Prefix

                        marker_prefix = Prefix(
                            key << (rib.width - marker_len), marker_len, rib.width
                        )
                        table[key] = rib.best_route_on_path(marker_prefix)
                        structure.marker_count += 1
                    lo = mid + 1
                else:
                    hi = mid - 1

        total = sum(len(t) for t in structure.tables.values())
        structure._region = structure.memmap.add_region(
            "bsearch.entries", ENTRY_BYTES, max(total, 1)
        )
        return structure

    # -- lookup ------------------------------------------------------------

    def lookup(self, key: int) -> int:
        best = self.default
        lengths = self.lengths
        lo, hi = 0, len(lengths) - 1
        width = self.width
        while lo <= hi:
            mid = (lo + hi) // 2
            length = lengths[mid]
            entry = self.tables[length].get(key >> (width - length))
            if entry is not None:
                if entry != NO_ROUTE:
                    best = entry
                lo = mid + 1
            else:
                hi = mid - 1
        return best

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        best = self.default
        lengths = self.lengths
        lo, hi = 0, len(lengths) - 1
        width = self.width
        slot = 0
        while lo <= hi:
            mid = (lo + hi) // 2
            length = lengths[mid]
            trace.work(_PROBE_INSTRUCTIONS)
            trace.mispredict(0.5)  # hit/miss is data-dependent
            # One hash-bucket access per probe; bucket position modeled by
            # hashing the probe key into the entry region.
            slot = hash((length, key >> (width - length))) % max(
                self._region.length, 1
            )
            trace.read(self._region, slot)
            entry = self.tables[length].get(key >> (width - length))
            if entry is not None:
                if entry != NO_ROUTE:
                    best = entry
                lo = mid + 1
            else:
                hi = mid - 1
        return best

    def memory_bytes(self) -> int:
        return ENTRY_BYTES * sum(len(t) for t in self.tables.values())
