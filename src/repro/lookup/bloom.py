"""Longest prefix matching with Bloom filters (Dharmapurikar et al., 2006).

Cited in the paper's Section 2 among the approaches that "fail to provide
either a good performance or a reasonable management cost".  One Bloom
filter per prefix length summarises, on chip, which prefixes exist; the
off-chip hash tables are probed from the longest length whose filter
answers "maybe" downwards, until a real entry is found.  In the expected
case exactly one off-chip access suffices; false positives cost extra
probes at a rate set by the filter sizing.

The implementation keeps the hardware split visible in the cost model:
filter queries are register work (instructions), hash-table probes are
memory accesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import hashlib
from typing import Dict, List, Optional

from repro.lookup.base import LookupStructure, StructureConfig
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE

ENTRY_BYTES = 12
_FILTER_INSTRUCTIONS = 4
_PROBE_INSTRUCTIONS = 3


class BloomFilter:
    """A classic Bloom filter with double hashing.

    >>> f = BloomFilter(bits=1024, hashes=4)
    >>> f.add(42)
    >>> f.may_contain(42)
    True
    """

    def __init__(self, bits: int, hashes: int) -> None:
        if bits <= 0 or hashes <= 0:
            raise ValueError("bits and hashes must be positive")
        self.bits = bits
        self.hashes = hashes
        self._array = bytearray((bits + 7) // 8)
        self.added = 0

    def _positions(self, item: int) -> List[int]:
        digest = hashlib.blake2b(
            item.to_bytes(20, "big"), digest_size=16
        ).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        return [(h1 + i * h2) % self.bits for i in range(self.hashes)]

    def add(self, item: int) -> None:
        for position in self._positions(item):
            self._array[position >> 3] |= 1 << (position & 7)
        self.added += 1

    def may_contain(self, item: int) -> bool:
        return all(
            self._array[position >> 3] & (1 << (position & 7))
            for position in self._positions(item)
        )

    def size_bytes(self) -> int:
        return len(self._array)


@dataclass(frozen=True)
class BloomConfig(StructureConfig):
    """Build options: on-chip filter density and hash count."""

    bits_per_entry: int = 12
    hashes: int = 4


@register("Bloom")
class BloomLpm(LookupStructure):
    """Bloom-filter-guided longest prefix matching."""

    name = "Bloom-LPM"

    def __init__(self, width: int, bits_per_entry: int = 12, hashes: int = 4):
        self.width = width
        self.bits_per_entry = bits_per_entry
        self.hashes = hashes
        self.lengths: List[int] = []
        self.filters: Dict[int, BloomFilter] = {}
        self.tables: Dict[int, Dict[int, int]] = {}
        self.default = NO_ROUTE
        #: Off-chip probes that found nothing (false positives), counted so
        #: the tests can pin the expected false-positive behaviour.
        self.false_positive_probes = 0
        self.probes = 0
        self.lookups = 0
        self.memmap = MemoryMap()
        self._region: Optional[object] = None

    @classmethod
    def from_rib(cls, rib: Rib, config=None, **options) -> "BloomLpm":
        config = BloomConfig.resolve(config, options)
        structure = cls(rib.width, config.bits_per_entry, config.hashes)
        per_length: Dict[int, Dict[int, int]] = {}
        for prefix, fib_index in rib.routes():
            if prefix.length == 0:
                structure.default = fib_index
                continue
            key = prefix.value >> (rib.width - prefix.length)
            per_length.setdefault(prefix.length, {})[key] = fib_index
        structure.lengths = sorted(per_length, reverse=True)
        for length, table in per_length.items():
            bloom = BloomFilter(
                bits=max(len(table) * config.bits_per_entry, 64),
                hashes=config.hashes,
            )
            for key in table:
                bloom.add((length << 40) ^ key)
            structure.filters[length] = bloom
            structure.tables[length] = table
        total = sum(len(t) for t in per_length.values())
        structure._region = structure.memmap.add_region(
            "bloom.entries", ENTRY_BYTES, max(total, 1)
        )
        return structure

    # -- lookup --------------------------------------------------------------

    def lookup(self, key: int) -> int:
        width = self.width
        self.lookups += 1
        for length in self.lengths:
            item = key >> (width - length)
            if self.filters[length].may_contain((length << 40) ^ item):
                self.probes += 1
                entry = self.tables[length].get(item)
                if entry is not None:
                    return entry
                self.false_positive_probes += 1
        return self.default

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        width = self.width
        for length in self.lengths:
            item = key >> (width - length)
            trace.work(_FILTER_INSTRUCTIONS)  # on-chip filter query
            if self.filters[length].may_contain((length << 40) ^ item):
                trace.work(_PROBE_INSTRUCTIONS)
                trace.mispredict(0.2)
                slot = hash((length, item)) % max(self._region.length, 1)
                trace.read(self._region, slot)
                entry = self.tables[length].get(item)
                if entry is not None:
                    return entry
        return self.default

    def false_positives_per_lookup(self) -> float:
        """Expected wasted off-chip probes per lookup — the quantity the
        filter sizing controls (≈ #filters × per-filter FP probability)."""
        return self.false_positive_probes / self.lookups if self.lookups else 0.0

    def memory_bytes(self) -> int:
        filters = sum(f.size_bytes() for f in self.filters.values())
        entries = ENTRY_BYTES * sum(len(t) for t in self.tables.values())
        return filters + entries
