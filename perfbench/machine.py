"""What the host did to the machine while a run measured.

The 2-core virtual machines this benchmark runs on share their host
with other tenants.  The host may take a virtual CPU away outright; the
kernel counts that time as *steal* in ``/proc/stat``, and a process's
own CPU time leaves it out.  So a busy share is taken against the time
the CPUs were not stolen, and the traced run reports the run's steal
share as ``machine.steal_share``, which tells a contended machine from a
slow program when two runs disagree.

The host also slows the CPUs it does give: the same code runs ~30 %
slower for a fraction of a second to minutes at a time.
:class:`SpeedProbe` times fixed reference blocks so that a workload
can report a time at a nominal speed, scaled by blocks timed next to
it: one update message's or one build's by the whole block, one chunk
of bulk lookups' by its memory part alone (see perfbench/README.md).
"""

from __future__ import annotations

import gc
import time
from typing import List

import numpy as np

from stats import median

#: Median time of one reference block at the nominal machine speed.
NOMINAL_S = 0.015
#: Median time of one memory block at the nominal machine speed.
NOMINAL_MEMORY_S = 0.010

_ITEMS = 60000
_TABLE = 1 << 21
_GATHER = 1 << 18
#: The memory block: gathers of this many lanes over a 4 MiB table of
#: words, about the size of a Poptrie18 p46 table's arrays.
_WORDS = 1 << 20
_LANES = 1 << 16
_PASSES = 8
_SPREAD = np.uint64(2654435761)


def _unhinted(values: np.ndarray) -> np.ndarray:
    """``values`` copied into memory numpy did not allocate.  numpy asks
    the kernel for huge pages for its own arrays of 4 MiB and more; the
    program's tables (``array`` buffers) get none, and whether the host
    has huge pages free differs from run to run."""
    out = np.frombuffer(bytearray(values.nbytes), values.dtype)
    out[:] = values
    return out


def _timed(block) -> float:
    """How long ``block()`` takes now, the collector off (a block makes
    no cycles; a collection of the caller's heap is not machine speed)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        block()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Times fixed reference blocks at the points where a run samples
    them.  They use no code of the program.

    The whole block — dict and tuple building (the allocator), a
    bytecode loop (the interpreter) and a numpy gather over 16 MiB
    (memory) — follows the pure-Python update and build paths.  Bulk
    lookups are numpy gathers over a few MiB, which the interpreter's
    speed does not follow; the memory block — index arithmetic, gathers
    over 4 MiB, a mask and a cast, on 65,536 lanes — is timed for them.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = _unhinted(np.arange(_TABLE, dtype=np.uint64))
        self._index = rng.integers(0, _TABLE, _GATHER)
        self._words = _unhinted(np.arange(_WORDS, dtype=np.uint32))
        self._lanes = rng.integers(0, _WORDS, _LANES).astype(np.uint64)

    def _block(self) -> None:
        table = {i: i for i in range(_ITEMS)}
        tuple(table.items())
        total = 0
        for i in range(_ITEMS):
            total += i * i
        self._table.take(self._index).sum()

    def _memory_block(self) -> None:
        for _ in range(_PASSES):
            entries = self._words.take(self._lanes * _SPREAD % np.uint64(_WORDS))
            np.flatnonzero(entries & 1)
            (entries >> 3).astype(np.int64)

    def block_s(self) -> float:
        """The time one reference block takes now."""
        return _timed(self._block)

    def memory_s(self) -> float:
        """The time one memory block takes now."""
        return _timed(self._memory_block)

    def median_block_s(self, blocks: int = 3) -> float:
        """The median time of ``blocks`` reference blocks timed now."""
        return median([self.block_s() for _ in range(blocks)])


def cpu_ticks() -> List[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat``: ticks spent in
    each state (user, nice, system, idle, iowait, irq, softirq, steal,
    ...) over all CPUs."""
    with open("/proc/stat") as stream:
        return [int(field) for field in stream.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of the CPUs' time between two :func:`cpu_ticks` readings
    that the host took away."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0
