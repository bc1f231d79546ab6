"""DXR (Zec, Rizzo, Mikuc — CCR 2012): D16R and D18R.

DXR transforms the routing table into per-chunk arrays of address ranges.
A 2^s-entry lookup table (s = 16 for D16R, 18 for D18R) either resolves
the query directly (chunks whose address space maps to one next hop) or
points at a slice of the global range array, which is binary-searched for
the last range starting at or below the queried offset.

Structural limits, exactly as Section 4.8 of the Poptrie paper describes:
the range index is 19 bits, so at most 2^19 ranges are supported; the
paper's "modified" DXR absorbs the short-format flag bit to reach 2^20
(``modified=True`` here).  Section 4.10's IPv6 variant extends the
per-chunk entry budget to 2^13 (``ipv6 tables are accepted when
modified=True``); range starts then cover the remaining ``width - s`` bits.

Each range is one 4-byte record on IPv4 — 16-bit start offset and 16-bit
next hop packed together — so one binary-search probe costs exactly one
memory access, which is what makes DXR's cache behaviour in Figures 10/11
reproducible from traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from array import array
from bisect import bisect_right
from typing import List, Tuple

import numpy as np

from repro.errors import StructuralLimitError
from repro.lookup.base import LookupStructure, StructureConfig, check_fib_capacity
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import ROOT, Rib
from repro.net.values import NO_ROUTE

_DIRECT_FLAG = 1 << 31

MAX_RANGES = 1 << 19
MAX_RANGES_MODIFIED = 1 << 20
MAX_CHUNK_RANGES = 1 << 12
MAX_CHUNK_RANGES_IPV6 = 1 << 13

_TABLE_INSTRUCTIONS = 4
_PROBE_INSTRUCTIONS = 4


@dataclass(frozen=True)
class DxrConfig(StructureConfig):
    """Build options: direct-lookup bits ``s`` and the paper's "modified"
    (flag-absorbing) range format (required for IPv6, Section 4.10)."""

    s: int = 18
    modified: bool = False


@register("D18R", s=18)
class Dxr(LookupStructure):
    """DXR with configurable direct-table width ``s`` (D16R / D18R)."""

    name = "DXR"
    fib_limit = 0xFFFF  # 16-bit next-hop entries

    def __init__(
        self,
        s: int,
        width: int,
        table: array,
        starts: List[int],
        nexthops: array,
        chunk_bounds: List[Tuple[int, int]],
        modified: bool,
    ) -> None:
        self.s = s
        self.width = width
        self.offset_bits = width - s
        self.table = table
        self.starts = starts      # range start offsets (within chunk)
        self.nexthops = nexthops  # parallel next-hop array
        self.chunk_bounds = chunk_bounds
        self.modified = modified
        self.name = f"D{s}R" + (" (modified)" if modified else "")
        range_bytes = 2 + max(2, (self.offset_bits + 7) // 8)
        self._range_bytes = range_bytes
        self.memmap = MemoryMap()
        self._table_region = self.memmap.add_region("dxr.table", 4, len(table))
        self._range_region = self.memmap.add_region(
            "dxr.ranges", range_bytes, max(len(starts), 1)
        )
        # Global sorted keys for the DXR kernel (IPv4 only).
        self._gkeys = None
        if width == 32 and starts:
            chunk_of = np.zeros(len(starts), dtype=np.uint64)
            for chunk, (base, count) in enumerate(chunk_bounds):
                if count:
                    chunk_of[base : base + count] = chunk
            self._gkeys = (chunk_of << np.uint64(self.offset_bits)) | np.array(
                starts, dtype=np.uint64
            )
            self._gnh = np.frombuffer(self.nexthops, dtype=np.uint16)

    @classmethod
    def from_rib(cls, rib: Rib, config=None, **options) -> "Dxr":
        config = DxrConfig.resolve(config, options)
        check_fib_capacity(cls, rib.max_fib_index())
        s, modified = config.s, config.modified
        width = rib.width
        if width != 32 and not modified:
            raise StructuralLimitError(
                "DXR requires the modified (flag-absorbing) format for IPv6"
            )
        offset_bits = width - s
        table = array("I", bytes(4 << s))
        starts: List[int] = []
        nexthops = array("H")
        chunk_bounds: List[Tuple[int, int]] = [(0, 0)] * (1 << s)
        range_limit = MAX_RANGES_MODIFIED if modified else MAX_RANGES
        # Section 4.10: the IPv6 variant widens the per-chunk entry budget by
        # one bit; the IPv4 "modified" variant only widens the global index.
        chunk_limit = MAX_CHUNK_RANGES_IPV6 if width != 32 else MAX_CHUNK_RANGES

        for base, span, next_hop, subtree in rib.expand(ROOT, NO_ROUTE, s):
            if subtree is not None:
                # The chunk's ranges: its expansion over the remaining
                # bits, adjacent runs with equal next hops merged.
                run_starts: List[int] = []
                run_hops: List[int] = []
                for start, _, hop, _ in rib.expand(subtree, next_hop, offset_bits):
                    if not run_hops or run_hops[-1] != hop:
                        run_starts.append(start)
                        run_hops.append(hop)
                count = len(run_hops)
                if count > 1:
                    if count > chunk_limit:
                        raise StructuralLimitError(
                            f"DXR: {count} ranges in one chunk exceed the "
                            f"{chunk_limit}-entry chunk format"
                        )
                    range_base = len(starts)
                    if range_base + count > range_limit:
                        raise StructuralLimitError(
                            f"DXR: range table exceeds {range_limit} entries"
                            + ("" if modified else " (try modified=True)")
                        )
                    starts += run_starts
                    nexthops.fromlist(run_hops)
                    chunk_bounds[base] = (range_base, count)
                    table[base] = range_base  # flag bit clear ⇒ range format
                    continue
                next_hop = run_hops[0]
            if span == 1:
                table[base] = _DIRECT_FLAG | next_hop
            else:
                table[base : base + span] = array("I", [_DIRECT_FLAG | next_hop]) * span
        return cls(s, width, table, starts, nexthops, chunk_bounds, modified)

    # -- LookupStructure -----------------------------------------------------

    def lookup(self, key: int) -> int:
        chunk = key >> self.offset_bits
        entry = self.table[chunk]
        if entry & _DIRECT_FLAG:
            return entry & (_DIRECT_FLAG - 1)
        base, count = self.chunk_bounds[chunk]
        offset = key & ((1 << self.offset_bits) - 1)
        i = bisect_right(self.starts, offset, base, base + count) - 1
        return self.nexthops[i]

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        chunk = key >> self.offset_bits
        trace.work(_TABLE_INSTRUCTIONS)
        trace.read(self._table_region, chunk)
        entry = self.table[chunk]
        if entry & _DIRECT_FLAG:
            return entry & (_DIRECT_FLAG - 1)
        base, count = self.chunk_bounds[chunk]
        offset = key & ((1 << self.offset_bits) - 1)
        # Explicit binary search so every probe is traced.  Each comparison
        # is a data-dependent 50/50 branch — the defining cost of the
        # search stage (Section 4.6's analysis of DXR's deep lookups).
        lo, hi = base, base + count
        while lo < hi:
            mid = (lo + hi) // 2
            trace.work(_PROBE_INSTRUCTIONS)
            trace.mispredict(0.5)
            trace.read(self._range_region, mid)
            if self.starts[mid] <= offset:
                lo = mid + 1
            else:
                hi = mid
        return self.nexthops[lo - 1]

    def memory_bytes(self) -> int:
        return 4 * len(self.table) + self._range_bytes * len(self.starts)

    # -- zero-copy images ------------------------------------------------

    def _image_state(self):
        meta = {"s": self.s, "width": self.width, "modified": self.modified}
        chunk_base = np.fromiter(
            (base for base, _ in self.chunk_bounds),
            dtype=np.uint32,
            count=len(self.chunk_bounds),
        )
        chunk_count = np.fromiter(
            (count for _, count in self.chunk_bounds),
            dtype=np.uint32,
            count=len(self.chunk_bounds),
        )
        segments = {"table": self.table}
        if self.offset_bits > 64:
            # IPv6 range starts need up to 128 - s bits: (hi, lo) columns.
            from repro.lookup.kernels import split_v6

            segments["starts_hi"], segments["starts_lo"] = split_v6(self.starts)
        else:
            segments["starts"] = np.array(self.starts, dtype=np.uint64)
        segments.update(
            nexthops=self.nexthops, chunk_base=chunk_base, chunk_count=chunk_count
        )
        return meta, segments

    @classmethod
    def _from_image_state(cls, meta, segments, *, copy: bool) -> "Dxr":
        from repro.errors import SnapshotFormatError
        from repro.lookup.dir24_8 import _frozen_view

        try:
            s = int(meta["s"])
            width = int(meta["width"])
            modified = bool(meta["modified"])
            table = segments["table"]
            if width - s > 64:
                columns = (segments["starts_hi"], segments["starts_lo"])
            else:
                columns = (segments["starts"],)
            nexthops = segments["nexthops"]
            chunk_base = segments["chunk_base"]
            chunk_count = segments["chunk_count"]
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotFormatError(f"invalid DXR image: {error}") from error
        if (
            len(table) != 1 << s
            or table.itemsize != 4
            or any(len(column) != len(nexthops) for column in columns)
            or nexthops.itemsize != 2
            or len(chunk_base) != 1 << s
            or len(chunk_count) != 1 << s
        ):
            raise SnapshotFormatError("DXR image segments inconsistent")
        # ``starts`` and ``chunk_bounds`` are always materialized as
        # Python lists — the scalar path binary-searches them with
        # ``bisect`` — so only the two flat arrays attach zero-copy.
        if len(columns) == 2:
            starts_list = [
                (high << 64) | low
                for high, low in zip(columns[0].tolist(), columns[1].tolist())
            ]
        else:
            starts_list = columns[0].tolist()
        chunk_bounds = list(
            zip(chunk_base.tolist(), chunk_count.tolist())
        )
        if copy:
            table_arr = array("I", table.tobytes())
            nexthop_arr = array("H", nexthops.tobytes())
        else:
            table_arr = _frozen_view(table)
            nexthop_arr = _frozen_view(nexthops)
        return cls(
            s, width, table_arr, starts_list, nexthop_arr, chunk_bounds,
            modified,
        )


register("D16R", Dxr, s=16)
