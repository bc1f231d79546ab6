"""Summary statistics shared by the workloads and the trace analysis.

Timings are reported as a median and a tail percentile.  A tail
percentile is only reported when the sample supports it: at least
``MIN_BEYOND`` samples must lie beyond it, so a p99 needs 1,000 samples
and a p90 needs 100.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank percentile ``q`` of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail(values: Sequence[float], q: float) -> float:
    """Percentile ``q``, refusing one the sample is too small to support."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has fewer than "
            f"{MIN_BEYOND} samples beyond it"
        )
    return percentile(values, q)


def sliced_percentile(values: Sequence[float], q: float, size: int = 2000) -> float:
    """Percentile ``q`` within each run of ``size`` consecutive values
    (in time order), and the median of those over the runs.

    One stall (a noisy neighbour, a collector pause) then moves one
    slice's percentile instead of the whole run's.  With fewer than two
    slices' worth of values, the whole sample's percentile is returned.
    """
    slices = len(values) // size
    if slices < 2:
        return tail(values, q)
    return median([tail(values[i * size:(i + 1) * size], q) for i in range(slices)])


def slice_rates(
    events: Sequence[Tuple[float, float]], start: float, seconds: float,
    window: float = 0.25,
) -> List[float]:
    """The work (``(time, amount)`` events) completed per second in each
    ``window``-second slice of ``[start, start + seconds)``."""
    slices = [0.0] * max(int(seconds / window), 1)
    for t, amount in events:
        i = math.floor((t - start) / window)
        if 0 <= i < len(slices):
            slices[i] += amount
    return [amount / window for amount in slices]


def error_ratio(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def due_latencies(records: Iterable[Tuple[float, float]]) -> List[float]:
    """Latency of each ``(due, done)`` pair, timed from the instant the
    request was *scheduled*, not from when it was actually sent: a stall
    in the sender then shows up in every request that waited behind it."""
    out = []
    for due, done in records:
        if done < due:
            raise ValueError(f"completion {done} precedes its due time {due}")
        out.append(done - due)
    return out


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its child spans cover."""
    clipped = [
        (max(lo, start), min(hi, end))
        for lo, hi in children
        if hi > start and lo < end
    ]
    return (end - start) - union_length(clipped)
