"""Lookup-rate measurement.

The standard algorithm roster lives in :mod:`repro.lookup.registry`.

Rates are reported in Mlps (million lookups per second) as in the paper.
Two engines are measured:

- **scalar** — one ``lookup()`` call per address, generating each random
  address immediately before its lookup with xorshift32, exactly as the
  paper's measurement loop does (Section 4.2, including the generator
  overhead in the result);
- **batch** — ``lookup_batch`` (the branchless kernel, or the scalar
  loop for structures without one), which amortises the interpreter
  overhead and is the better proxy for compiled relative performance.

Absolute numbers are of course far below the paper's C implementation —
the shape comparisons (who wins, by what factor, where the crossovers
fall) are the reproduction target; see EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.data.xorshift import Xorshift32
from repro.lookup.base import LookupStructure


@dataclass
class RateResult:
    """One measured rate."""

    name: str
    lookups: int
    seconds: float
    memory_bytes: int = 0

    @property
    def mlps(self) -> float:
        return self.lookups / self.seconds / 1e6 if self.seconds else 0.0

    @property
    def memory_mib(self) -> float:
        return self.memory_bytes / (1 << 20)


def measure_rate_scalar(
    structure: LookupStructure,
    count: int,
    seed: int = 2463534242,
    repeats: int = 1,
) -> RateResult:
    """Scalar rate for the paper's random pattern: generate-then-look-up,
    per address, per the Section 4.2 methodology.  ``repeats`` takes the
    best of N timing passes (the paper averages ten runs; min-of-N is the
    standard Python timing hygiene and is what we report)."""
    best = float("inf")
    for _ in range(repeats):
        generator = Xorshift32(seed)
        step = generator.next
        lookup = structure.lookup
        start = time.perf_counter()
        for _ in range(count):
            lookup(step())
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return RateResult(structure.name, count, best, structure.memory_bytes())


def measure_rate_scalar_keys(
    structure: LookupStructure, keys: Sequence[int], repeats: int = 1
) -> RateResult:
    """Scalar rate over a pre-materialised key stream (sequential /
    repeated / real-trace patterns, where the paper also pre-loads the
    destinations into an array)."""
    best = float("inf")
    lookup = structure.lookup
    for _ in range(repeats):
        start = time.perf_counter()
        for key in keys:
            lookup(key)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return RateResult(structure.name, len(keys), best, structure.memory_bytes())


def measure_rate_batch(
    structure: LookupStructure,
    keys: np.ndarray,
    repeats: int = 3,
    chunk: int = 1 << 16,
) -> RateResult:
    """Batch-engine rate over a prepared key array, processed in chunks
    (chunking keeps the working set realistic rather than letting one
    giant gather hide all control flow)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for begin in range(0, len(keys), chunk):
            structure.lookup_batch(keys[begin : begin + chunk])
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return RateResult(structure.name, len(keys), best, structure.memory_bytes())


def measure_compile_time(
    builder: Callable[[], LookupStructure], repeats: int = 3
) -> Tuple[LookupStructure, float]:
    """Build a structure ``repeats`` times; returns (structure, best s)."""
    best = float("inf")
    structure: Optional[LookupStructure] = None
    for _ in range(repeats):
        start = time.perf_counter()
        structure = builder()
        best = min(best, time.perf_counter() - start)
    assert structure is not None
    return structure, best
