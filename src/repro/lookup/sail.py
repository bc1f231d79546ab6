"""SAIL (Yang et al., SIGCOMM 2014) — the SAIL_L variant the paper compares.

SAIL splits lookup into levels 16, 24 and 32.  Prefixes are pushed to those
three levels (the "splitting lookup process" of the original paper).  Each
level-16 and level-24 entry is a 16-bit *BCN* word: the top bit says
whether the entry is a next hop (0) or the identifier of a 256-entry chunk
at the next level (1); the identifier therefore has **15 bits**, which is
the structural limit Section 4.8 of the Poptrie paper exercises: "C16[i]
in SAIL is encoded in the 15 bits of BCN[i], but it exceeds 2^15 for these
datasets" — compiling such a table raises
:class:`~repro.errors.StructuralLimitError` here, and the Table 5 harness
reports "N/A" for SAIL exactly as the paper does.

Level 16 is a flat 2^16 array; levels 24 and 32 are arrays of 256-entry
chunks, allocated only for the level-16/24 entries that need them.  With a
full BGP table most /16s carry longer prefixes, so the structure's
footprint exceeds the L3 cache — the property driving SAIL's cache
behaviour in Figures 10/11.

SAIL_L does not support IPv6 routes more specific than /64 (Section 4.10);
this implementation is IPv4-only like the paper's comparison.
"""

from __future__ import annotations

from array import array
from typing import List

from repro.errors import StructuralLimitError
from repro.lookup.base import LookupStructure, NoOptions, check_fib_capacity
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE

_CHUNK_FLAG = 1 << 15
MAX_CHUNKS = 1 << 15

_INSTRUCTIONS = 3


@register("SAIL")
class Sail(LookupStructure):
    """SAIL_L: level-pushed 16/24/32 arrays with 16-bit BCN entries."""

    name = "SAIL"
    fib_limit = _CHUNK_FLAG - 1  # the top bit of an entry is the chunk flag

    def __init__(self, bcn16: array, bcn24: array, n32: array) -> None:
        self.bcn16 = bcn16
        self.bcn24 = bcn24
        self.n32 = n32
        self.memmap = MemoryMap()
        self._region16 = self.memmap.add_region("sail.bcn16", 2, len(bcn16))
        self._region24 = self.memmap.add_region("sail.bcn24", 2, max(len(bcn24), 1))
        self._region32 = self.memmap.add_region("sail.n32", 2, max(len(n32), 1))

    @classmethod
    def from_rib(cls, rib: Rib, config=None, **options) -> "Sail":
        NoOptions.resolve(config, options)
        if rib.width != 32:
            raise ValueError("SAIL_L is an IPv4 structure")
        check_fib_capacity(cls, rib.max_fib_index())

        bcn16 = array("H", bytes(2 << 16))
        chunks24: List[array] = []
        chunks32: List[array] = []

        def new_chunk(chunk_list: List[array], limit_name: str) -> int:
            # Identifiers are 1-based (0 means "next hop"), so at most
            # 2^15 - 1 chunks fit in the 15-bit BCN field.
            if len(chunk_list) >= MAX_CHUNKS - 1:
                raise StructuralLimitError(
                    f"SAIL: more than 2^15 {limit_name} chunk identifiers"
                )
            chunk_list.append(array("H", bytes(2 << 8)))
            return len(chunk_list)

        # Controlled prefix expansion in strides of 16, 8, 8 — the same
        # radix-walk used by every other builder in the library.
        def fill16(node, depth: int, base: int, inherited: int) -> None:
            if node is not None and node.route != NO_ROUTE:
                inherited = node.route
            if depth == 16:
                if node is not None and not node.is_leaf():
                    ident = new_chunk(chunks24, "level-24")
                    bcn16[base] = _CHUNK_FLAG | ident
                    fill8(node, 0, 0, inherited, chunks24[ident - 1], 24)
                else:
                    bcn16[base] = inherited
                return
            if node is None:
                span = 1 << (16 - depth)
                bcn16[base : base + span] = array("H", [inherited]) * span
                return
            half = 1 << (16 - depth - 1)
            fill16(node.left, depth + 1, base, inherited)
            fill16(node.right, depth + 1, base + half, inherited)

        def fill8(node, depth: int, base: int, inherited: int, chunk, level) -> None:
            if node is not None and node.route != NO_ROUTE:
                inherited = node.route
            if depth == 8:
                if level == 24 and node is not None and not node.is_leaf():
                    ident = new_chunk(chunks32, "level-32")
                    chunk[base] = _CHUNK_FLAG | ident
                    fill8(node, 0, 0, inherited, chunks32[ident - 1], 32)
                else:
                    chunk[base] = inherited
                return
            if node is None:
                span = 1 << (8 - depth)
                chunk[base : base + span] = array("H", [inherited]) * span
                return
            half = 1 << (8 - depth - 1)
            fill8(node.left, depth + 1, base, inherited, chunk, level)
            fill8(node.right, depth + 1, base + half, inherited, chunk, level)

        fill16(rib.root, 0, 0, NO_ROUTE)

        bcn24 = array("H")
        for chunk in chunks24:
            bcn24.extend(chunk)
        n32 = array("H")
        for chunk in chunks32:
            n32.extend(chunk)
        return cls(bcn16, bcn24, n32)

    # -- LookupStructure ---------------------------------------------------------

    def lookup(self, key: int) -> int:
        entry = self.bcn16[key >> 16]
        if not entry & _CHUNK_FLAG:
            return entry
        index = (((entry & (_CHUNK_FLAG - 1)) - 1) << 8) | ((key >> 8) & 0xFF)
        entry = self.bcn24[index]
        if not entry & _CHUNK_FLAG:
            return entry
        return self.n32[(((entry & (_CHUNK_FLAG - 1)) - 1) << 8) | (key & 0xFF)]

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        trace.work(_INSTRUCTIONS)
        trace.read(self._region16, key >> 16)
        entry = self.bcn16[key >> 16]
        if not entry & _CHUNK_FLAG:
            return entry
        index = (((entry & (_CHUNK_FLAG - 1)) - 1) << 8) | ((key >> 8) & 0xFF)
        trace.work(_INSTRUCTIONS)
        trace.mispredict(0.15)
        trace.read(self._region24, index)
        entry = self.bcn24[index]
        if not entry & _CHUNK_FLAG:
            return entry
        index = (((entry & (_CHUNK_FLAG - 1)) - 1) << 8) | (key & 0xFF)
        trace.work(_INSTRUCTIONS)
        trace.mispredict(0.15)
        trace.read(self._region32, index)
        return self.n32[index]

    def memory_bytes(self) -> int:
        return 2 * (len(self.bcn16) + len(self.bcn24) + len(self.n32))

    # -- zero-copy images ------------------------------------------------

    def _image_state(self):
        return {}, {"bcn16": self.bcn16, "bcn24": self.bcn24, "n32": self.n32}

    @classmethod
    def _from_image_state(cls, meta, segments, *, copy: bool) -> "Sail":
        from repro.errors import SnapshotFormatError
        from repro.lookup.dir24_8 import _frozen_view

        try:
            bcn16, bcn24, n32 = (
                segments["bcn16"], segments["bcn24"], segments["n32"]
            )
        except KeyError as error:
            raise SnapshotFormatError(
                f"SAIL image lacks segment {error}"
            ) from error
        if len(bcn16) != 1 << 16 or any(
            seg.itemsize != 2 for seg in (bcn16, bcn24, n32)
        ):
            raise SnapshotFormatError("SAIL image segments malformed")
        if copy:
            return cls(
                array("H", bcn16.tobytes()),
                array("H", bcn24.tobytes()),
                array("H", n32.tobytes()),
            )
        return cls(_frozen_view(bcn16), _frozen_view(bcn24), _frozen_view(n32))
