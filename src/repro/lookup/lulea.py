"""The Lulea algorithm (Degermark, Brodnik, Carlsson, Pink — SIGCOMM 1997).

Cited in the paper's Section 2: "the Lulea algorithm was proposed to
reduce the memory footprint for the routing table" — it is the direct
intellectual ancestor of Poptrie's leafvec: a three-level (16/8/8) trie
whose expanded per-level arrays are compressed by marking only the
positions where the value *changes* in a bit vector, then locating the
surviving value with a population count.

This implementation keeps Lulea's machinery explicit:

- per level-chunk, a bit vector over the expanded slots with a 1 at each
  run start ("codewords", stored as 64-bit words here);
- a *base index* per 64-bit word (Lulea's "base indices into the code
  word array") so ranks don't require scanning the whole vector;
- a compacted items array whose entries are either next hops or pointers
  to next-level chunks.

What Poptrie adds on top of this (Section 2/3 of the paper): a uniform
64-ary branching factor matched to the popcount register width, the
separation of internal-node and leaf indices (vector vs leafvec), O(1)
in-node search, and incremental updates — Lulea tables are effectively
rebuild-only, which this implementation also is.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from repro.errors import StructuralLimitError
from repro.lookup.base import LookupStructure, NoOptions, check_fib_capacity
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import ROOT, Rib
from repro.net.values import NO_ROUTE

#: Items with this bit set point at a next-level chunk id.
_CHUNK_FLAG = 1 << 15
MAX_CHUNKS = 1 << 15

_LEVEL_INSTRUCTIONS = 7  # index split, word fetch, popcount, rank add

#: The classic Lulea level split for IPv4.
LEVEL_BITS = (16, 8, 8)


class _Level:
    """One compressed level: concatenated per-chunk codewords and items.

    Chunk ``c`` of a level with ``2^k`` slots occupies words
    ``[c * 2^k / 64, (c+1) * 2^k / 64)`` of ``masks`` and the item range
    referenced through ``bases``.
    """

    def __init__(self, slots: int) -> None:
        self.slots = slots
        self.words_per_chunk = max(slots // 64, 1)
        self.masks = array("Q")
        self.bases = array("I")  # item rank before each word
        self.items = array("H")

    def append_chunk(self, values: List[int]) -> None:
        """Compress one expanded chunk (run-start marking + base indices)."""
        assert len(values) == self.slots
        word = 0
        previous: Optional[int] = None
        for v, value in enumerate(values):
            bit = v & 63
            if bit == 0:
                if v:
                    self.masks.append(word)
                    word = 0
                self.bases.append(len(self.items))
            if value != previous:
                word |= 1 << bit
                self.items.append(value)
                previous = value
        self.masks.append(word)

    def get(self, chunk: int, slot: int) -> int:
        word_index = chunk * self.words_per_chunk + (slot >> 6)
        bit = slot & 63
        word = self.masks[word_index]
        rank = self.bases[word_index] + (word & ((2 << bit) - 1)).bit_count()
        return self.items[rank - 1]

    def memory_bytes(self) -> int:
        return 8 * len(self.masks) + 4 * len(self.bases) + 2 * len(self.items)


@register("Lulea")
class Lulea(LookupStructure):
    """Three-level Lulea-compressed IPv4 lookup table."""

    name = "Lulea"
    fib_limit = _CHUNK_FLAG - 1  # the top bit of an entry is the chunk flag

    def __init__(self) -> None:
        self.width = 32
        self.levels = [_Level(1 << bits) for bits in LEVEL_BITS]
        self.memmap = MemoryMap()
        self._regions: List[object] = []

    @classmethod
    def from_rib(cls, rib: Rib, config=None, **options) -> "Lulea":
        NoOptions.resolve(config, options)
        if rib.width != 32:
            raise ValueError("Lulea is an IPv4 structure")
        check_fib_capacity(cls, rib.max_fib_index())
        structure = cls()
        chunk_counts = [0, 0, 0]

        def add_chunk(node: Optional[int], inherited: int, level: int) -> int:
            """Expand one chunk at ``level``; returns its chunk id."""
            values: List[int] = []
            for _, span, next_hop, subtree in rib.expand(
                node, inherited, LEVEL_BITS[level]
            ):
                if subtree is not None:
                    child = add_chunk(subtree, next_hop, level + 1)
                    values.append(_CHUNK_FLAG | child)
                elif span == 1:
                    values.append(next_hop)
                else:
                    values += [next_hop] * span
            if chunk_counts[level] >= MAX_CHUNKS - 1:
                raise StructuralLimitError(
                    f"Lulea: more than 2^15 level-{level + 1} chunks"
                )
            structure.levels[level].append_chunk(values)
            chunk_id = chunk_counts[level]
            chunk_counts[level] += 1
            return chunk_id

        add_chunk(ROOT, NO_ROUTE, 0)
        for i, level in enumerate(structure.levels):
            structure._regions.append(
                structure.memmap.add_region(
                    f"lulea.level{i}", 8, max(len(level.masks), 1)
                )
            )
        return structure

    # -- lookup --------------------------------------------------------------

    def lookup(self, key: int) -> int:
        entry = self.levels[0].get(0, key >> 16)
        if not entry & _CHUNK_FLAG:
            return entry
        entry = self.levels[1].get(entry & (_CHUNK_FLAG - 1), (key >> 8) & 0xFF)
        if not entry & _CHUNK_FLAG:
            return entry
        return self.levels[2].get(entry & (_CHUNK_FLAG - 1), key & 0xFF)

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        slots = [(0, key >> 16), None, None]
        entry = 0
        for level_index in range(3):
            if level_index == 1:
                slots[1] = (entry & (_CHUNK_FLAG - 1), (key >> 8) & 0xFF)
            elif level_index == 2:
                slots[2] = (entry & (_CHUNK_FLAG - 1), key & 0xFF)
            chunk, slot = slots[level_index]
            level = self.levels[level_index]
            word_index = chunk * level.words_per_chunk + (slot >> 6)
            trace.work(_LEVEL_INSTRUCTIONS)
            # Codeword + base fetch (adjacent, one line) then the item.
            trace.read(self._regions[level_index], word_index)
            entry = level.get(chunk, slot)
            if not entry & _CHUNK_FLAG:
                return entry
            trace.mispredict(0.15)
        return entry

    def memory_bytes(self) -> int:
        return sum(level.memory_bytes() for level in self.levels)

    @property
    def chunk_counts(self) -> Tuple[int, int, int]:
        return tuple(
            len(level.masks) // level.words_per_chunk for level in self.levels
        )
