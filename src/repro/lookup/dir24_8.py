"""DIR-24-8-BASIC (Gupta, Lin, McKeown — INFOCOM 1998).

The related-work baseline of Section 2: a 2^24-entry table resolves every
prefix of length ≤ 24 in one access; longer prefixes spill into 256-entry
second-level chunks.  Entry encoding follows the original paper: the top
bit of a first-level entry selects between "next hop" and "index of a
second-level chunk".

The structure is famously memory-hungry (the 2^24 table alone is 32 MiB at
16-bit entries), which is exactly why the cache-conscious designs the paper
studies exist; including it grounds the memory-footprint comparisons.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.errors import StructuralLimitError
from repro.lookup.base import LookupStructure, NoOptions, check_fib_capacity
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import ROOT, Rib
from repro.net.values import NO_ROUTE

_CHUNK_FLAG = 1 << 15
_INSTRUCTIONS = 4

#: 15 bits address second-level chunks, mirroring the original encoding.
MAX_CHUNKS = 1 << 15


@register("DIR-24-8")
class Dir24_8(LookupStructure):
    """DIR-24-8-BASIC with 16-bit table entries."""

    name = "DIR-24-8"
    fib_limit = _CHUNK_FLAG - 1  # the top bit of an entry is the chunk flag

    def __init__(self, tbl24: array, tbl_long: array) -> None:
        self.tbl24 = tbl24
        self.tbl_long = tbl_long
        self.memmap = MemoryMap()
        self._region24 = self.memmap.add_region("dir.tbl24", 2, len(tbl24))
        self._region_long = self.memmap.add_region(
            "dir.tbllong", 2, max(len(tbl_long), 1)
        )

    @classmethod
    def from_rib(cls, rib: Rib, config=None, **options) -> "Dir24_8":
        NoOptions.resolve(config, options)
        if rib.width != 32:
            raise ValueError("DIR-24-8 is an IPv4 structure")
        check_fib_capacity(cls, rib.max_fib_index())
        tbl24 = array("H", bytes(2 << 24))
        tbl_long = array("H")
        # Controlled prefix expansion at stride 24; each subtree left at
        # depth 24 appends a 256-entry chunk to ``tbl_long``.
        for base, span, next_hop, subtree in rib.expand(ROOT, NO_ROUTE, 24):
            if subtree is None:
                if span == 1:
                    tbl24[base] = next_hop
                else:
                    tbl24[base : base + span] = array("H", [next_hop]) * span
                continue
            chunk = len(tbl_long) >> 8
            if chunk >= MAX_CHUNKS:
                raise StructuralLimitError(
                    "DIR-24-8: more than 2^15 second-level chunks"
                )
            tbl24[base] = _CHUNK_FLAG | chunk
            for _, count, hop, _ in rib.expand(subtree, next_hop, 8):
                if count == 1:
                    tbl_long.append(hop)
                else:
                    tbl_long.fromlist([hop] * count)
        return cls(tbl24, tbl_long)

    # -- LookupStructure -------------------------------------------------------

    def lookup(self, key: int) -> int:
        entry = self.tbl24[key >> 8]
        if entry & _CHUNK_FLAG:
            return self.tbl_long[((entry & (_CHUNK_FLAG - 1)) << 8) | (key & 0xFF)]
        return entry

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        trace.work(_INSTRUCTIONS)
        trace.read(self._region24, key >> 8)
        entry = self.tbl24[key >> 8]
        if entry & _CHUNK_FLAG:
            index = ((entry & (_CHUNK_FLAG - 1)) << 8) | (key & 0xFF)
            trace.work(_INSTRUCTIONS)
            trace.mispredict(0.1)
            trace.read(self._region_long, index)
            return self.tbl_long[index]
        return entry

    def memory_bytes(self) -> int:
        return 2 * len(self.tbl24) + 2 * len(self.tbl_long)

    # -- zero-copy images ------------------------------------------------

    def _image_state(self):
        return {}, {"tbl24": self.tbl24, "tbl_long": self.tbl_long}

    @classmethod
    def _from_image_state(cls, meta, segments, *, copy: bool) -> "Dir24_8":
        from repro.errors import SnapshotFormatError

        try:
            tbl24, tbl_long = segments["tbl24"], segments["tbl_long"]
        except KeyError as error:
            raise SnapshotFormatError(
                f"DIR-24-8 image lacks segment {error}"
            ) from error
        if len(tbl24) != 1 << 24 or tbl24.itemsize != 2 or tbl_long.itemsize != 2:
            raise SnapshotFormatError("DIR-24-8 image segments malformed")
        if copy:
            return cls(array("H", tbl24.tobytes()), array("H", tbl_long.tobytes()))
        return cls(_frozen_view(tbl24), _frozen_view(tbl_long))


def _frozen_view(arr: np.ndarray) -> np.ndarray:
    view = np.asarray(arr).view()
    view.flags.writeable = False
    return view
