"""Kernel-vs-scalar measurement: the ``BENCH_kernels.json`` numbers.

One structure, one key stream, two paths timed against each other:

- **scalar** — per-key ``lookup()`` calls (the oracle; also the source
  of the result fingerprint the kernel must match, and the baseline the
  kernel speedup is quoted against);
- **kernel** — the branchless gather kernel from
  :mod:`repro.lookup.kernels`, through the structure's ``lookup_batch``.

Every pass runs in one process with min-of-N, because cross-process
comparisons on shared machines routinely wobble 30–40%.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict

import numpy as np

from repro.lookup.base import LookupStructure, normalize_batch_keys, scalar_batch


def _time_pass(fn: Callable[[np.ndarray], object], keys: np.ndarray,
               chunk: int) -> float:
    start = time.perf_counter()
    for begin in range(0, len(keys), chunk):
        fn(keys[begin : begin + chunk])
    return time.perf_counter() - start


def _sha256(results: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(results, dtype=np.uint32).tobytes()
    ).hexdigest()


def kernel_comparison(
    structure: LookupStructure,
    keys,
    *,
    repeats: int = 3,
    chunk: int = 1 << 16,
    reference_keys: int = 20_000,
) -> Dict[str, object]:
    """Measure the scalar and kernel paths for ``structure`` over
    ``keys``.

    The slow per-key scalar path is timed over the first
    ``reference_keys`` keys only — at full-table scale it is ~100×
    slower than the kernel, and a capped sample times it just as
    accurately.  The kernel sees the full stream.  The scalar *results*,
    however, are computed over the full stream untimed: they are the
    oracle fingerprint.
    """
    keys = normalize_batch_keys(keys, structure.width)
    ref = keys[: min(reference_keys, len(keys))]

    # Oracle: full-stream scalar results (untimed).
    lookup = structure.lookup
    oracle_sha = _sha256(scalar_batch(lookup, keys))

    # Scalar rate over the reference sample.
    best_scalar = min(
        _time_pass(lambda c: [lookup(int(k)) for k in c], ref, chunk)
        for _ in range(repeats)
    )

    kernel = structure._batch_kernel()
    kernel_mlps = kernel_sha = None
    if kernel is not None:
        best_kernel = min(
            _time_pass(structure._lookup_batch, keys, chunk)
            for _ in range(repeats)
        )
        kernel_mlps = len(keys) / best_kernel / 1e6
        kernel_sha = _sha256(structure.lookup_batch(keys))

    scalar_mlps = len(ref) / best_scalar / 1e6
    return {
        "name": structure.name,
        "batch_engine": structure.batch_engine(),
        "kernel": None if kernel is None else kernel.name,
        "memory_bytes": structure.memory_bytes(),
        "queries": len(keys),
        "reference_queries": len(ref),
        "scalar_mlps": scalar_mlps,
        "kernel_mlps": kernel_mlps,
        "speedup_vs_scalar": (
            None if kernel_mlps is None else kernel_mlps / scalar_mlps
        ),
        "scalar_sha256": oracle_sha,
        "kernel_sha256": kernel_sha,
        "oracle_match": None if kernel is None else kernel_sha == oracle_sha,
    }
