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

from repro.errors import StructuralLimitError
from repro.lookup.base import LookupStructure, NoOptions, check_fib_capacity
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import ROOT, Rib
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

        bcn16, bcn24, n32 = array("H"), array("H"), array("H")
        levels = [(bcn16, 16), (bcn24, 8), (n32, 8)]

        def append_chunk(level: int, node, inherited: int) -> None:
            """Append the expansion of the radix subtree at ``node`` to
            ``level``'s array (0: level 16, 1: 24, 2: 32); each subtree
            left at the chunk's end gets the next level's next chunk."""
            out, stride = levels[level]
            for _, span, next_hop, subtree in rib.expand(node, inherited, stride):
                if subtree is None:
                    if span == 1:
                        out.append(next_hop)
                    else:
                        out.fromlist([next_hop] * span)
                    continue
                # Identifiers are 1-based (0 means "next hop"), so at most
                # 2^15 - 1 chunks fit in the 15-bit BCN field.
                ident = (len(levels[level + 1][0]) >> 8) + 1
                if ident >= MAX_CHUNKS:
                    raise StructuralLimitError(
                        f"SAIL: more than 2^15 level-{24 + 8 * level} chunk "
                        "identifiers"
                    )
                append_chunk(level + 1, subtree, next_hop)
                out.append(_CHUNK_FLAG | ident)

        # Controlled prefix expansion in strides of 16, 8, 8.
        append_chunk(0, ROOT, NO_ROUTE)
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
