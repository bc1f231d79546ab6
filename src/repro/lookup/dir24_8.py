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
from typing import List

import numpy as np

from repro.errors import StructuralLimitError
from repro.lookup.base import LookupStructure, NoOptions, check_fib_capacity
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import Rib
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
        chunks: List[array] = []

        # Walk the radix tree to depth 24, filling ranges (same controlled
        # prefix expansion the Poptrie builder uses, at stride 24+8).
        def fill(node, depth: int, base: int, inherited: int) -> None:
            if node is not None and node.route != NO_ROUTE:
                inherited = node.route
            if depth == 24:
                if node is not None and not node.is_leaf():
                    if len(chunks) >= MAX_CHUNKS:
                        raise StructuralLimitError(
                            "DIR-24-8: more than 2^15 second-level chunks"
                        )
                    chunk = array("H", bytes(2 << 8))
                    fill_chunk(node, 0, 0, inherited, chunk)
                    tbl24[base] = _CHUNK_FLAG | len(chunks)
                    chunks.append(chunk)
                else:
                    tbl24[base] = inherited
                return
            if node is None:
                span = 1 << (24 - depth)
                tbl24[base : base + span] = array("H", [inherited]) * span
                return
            half = 1 << (24 - depth - 1)
            fill(node.left, depth + 1, base, inherited)
            fill(node.right, depth + 1, base + half, inherited)

        def fill_chunk(node, depth: int, base: int, inherited: int, chunk) -> None:
            if node is not None and node.route != NO_ROUTE:
                inherited = node.route
            if depth == 8 or node is None:
                span = 1 << (8 - depth)
                chunk[base : base + span] = array("H", [inherited]) * span
                return
            half = 1 << (8 - depth - 1)
            fill_chunk(node.left, depth + 1, base, inherited, chunk)
            fill_chunk(node.right, depth + 1, base + half, inherited, chunk)

        fill(rib.root, 0, 0, NO_ROUTE)
        tbl_long = array("H")
        for chunk in chunks:
            tbl_long.extend(chunk)
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
