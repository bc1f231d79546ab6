"""Multi-core scaling (Figure 8), measured on the production pool.

The paper's point in Section 4.4 is architectural: the Poptrie arrays are
read-only at lookup time, so N cores share one copy through the shared
cache and the aggregate rate scales linearly.  These functions time
:class:`repro.parallel.WorkerPool`, the path ``serve --workers N`` uses:
one RPIMG001 image in shared memory, zero-copy worker attach, sharded
batches with ordered reassembly.  Their results include the pool's IPC
and reassembly overhead, which is the honest Figure 8 number for this
implementation; the in-process
:func:`~repro.bench.harness.measure_rate_batch` rate is the single-core
reference beside it.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.bench.harness import RateResult
from repro.lookup.base import LookupStructure


def measure_pool_rate(
    structure: LookupStructure,
    keys: np.ndarray,
    workers: int,
    rounds: int = 3,
) -> RateResult:
    """Aggregate Mlps through a ``WorkerPool`` with ``workers`` workers.

    One untimed warm round (worker page-in, numpy allocation), then
    ``rounds`` timed full-array batches through the pool view.
    """
    from repro.parallel import PoolConfig, WorkerPool

    with WorkerPool(structure, PoolConfig(workers=workers)) as pool:
        view = pool.view()
        view.lookup_batch(keys)  # warm round
        start = time.perf_counter()
        for _ in range(rounds):
            view.lookup_batch(keys)
        elapsed = time.perf_counter() - start
    return RateResult(
        f"{structure.name} pool x{workers}",
        len(keys) * rounds,
        elapsed,
        structure.memory_bytes(),
    )


def pool_scaling_curve(
    structure: LookupStructure,
    keys: np.ndarray,
    max_workers: int = 4,
    rounds: int = 3,
) -> List[RateResult]:
    """Figure 8 measured for real: pool aggregate rate at 1..max_workers."""
    return [
        measure_pool_rate(structure, keys, workers, rounds=rounds)
        for workers in range(1, max_workers + 1)
    ]
