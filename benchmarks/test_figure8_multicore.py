"""Figure 8: aggregated lookup rate by the number of cores.

The paper: "the lookup rate of Poptrie can be linearly scaled up to the
number of CPU cores" because the structure is read-shared.  Measured two
ways over REAL-Tier1-A and REAL-Tier1-B:

- **pool (measured)** — :class:`repro.parallel.WorkerPool`, the real
  data plane behind ``serve --workers N``: the built Poptrie frozen as
  one RPIMG001 image in POSIX shared memory, N worker processes attached
  zero-copy, batches sharded with ordered reassembly.  This number
  includes the pool's IPC and reassembly overhead — the honest
  multicore rate of this implementation.
- **linear (reference)** — the in-process batch rate
  (:func:`repro.bench.harness.measure_rate_batch`, the number ``bench
  --workers`` prints as its "in-process reference") times the worker
  count.  This is the ideal-scaling line plotted alongside, like the
  dashed linear reference in the paper's Figure 8; the gap between the
  two lines *is* the pool overhead (and, on a box with fewer cores than
  workers, the missing cores).

Both series land in ``figure8_multicore.txt`` and the machine-readable
``BENCH_multicore.json`` (the CI artifact).

The linear-scaling assertion needs real parallel hardware; on boxes with
fewer than four usable CPUs (CI containers are often pinned to one core)
the artifacts are still produced — demonstrating the shared-memory,
zero-copy property — but the speedup assertion is skipped and the run
records the environment limitation.
"""

import json
import os

import pytest

from benchmarks.conftest import RESULTS_DIR, SCALE, dataset, emit

from repro.bench.harness import measure_rate_batch
from repro.bench.parallel import pool_scaling_curve
from repro.bench.report import Table
from repro.core.aggregate import aggregated_rib
from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.data.traffic import random_addresses

MAX_WORKERS = 4


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="the worker pool run requires POSIX"
)
def test_figure8_multicore_scaling(benchmark):
    cpus = _usable_cpus()
    keys = random_addresses(200_000, seed=88)
    table = Table(
        ["Dataset", "Series", "1 worker", "2 workers", "3 workers",
         "4 workers"],
        title=(
            "Figure 8: aggregate Mlps vs workers (Poptrie18; "
            f"{cpus} usable CPUs)"
        ),
    )
    payload = {
        "scenario": "multicore",
        "figure": 8,
        "scale": SCALE,
        "cpu_count": cpus,
        "queries": len(keys),
        "max_workers": MAX_WORKERS,
        "datasets": {},
    }
    pool_curves = {}
    for name in ("REAL-Tier1-A", "REAL-Tier1-B"):
        ds = dataset(name)
        trie = Poptrie.from_rib(
            aggregated_rib(ds.rib), PoptrieConfig(s=18), fib_size=len(ds.fib) + 1
        )
        if name == "REAL-Tier1-A":
            benchmark.pedantic(
                lambda: trie.lookup_batch(keys[:65536]), rounds=3, iterations=1
            )
        pool = [
            r.mlps for r in pool_scaling_curve(trie, keys, MAX_WORKERS)
        ]
        single = measure_rate_batch(trie, keys).mlps
        reference = [single * workers for workers in range(1, MAX_WORKERS + 1)]
        pool_curves[name] = pool
        table.add_row([name, "pool (measured)"] + pool)
        table.add_row([name, "linear (reference)"] + reference)
        payload["datasets"][name] = {
            "routes": len(ds.rib),
            "pool_mlps": pool,
            "linear_reference_mlps": reference,
            "pool_speedup": [rate / (pool[0] or 1e-9) for rate in pool],
        }
    emit(table, "figure8_multicore")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_multicore.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    if cpus >= 4:
        for name, rates in pool_curves.items():
            # Aggregate throughput through the *real* pool grows with
            # workers (sub-linear headroom for shard IPC and shared-cache
            # contention).
            assert rates[3] > rates[0] * 1.8, (name, rates)
            assert rates[1] > rates[0] * 1.2, (name, rates)
    else:
        # Single-core environment: the property still demonstrated is
        # that N workers attach to one shared-memory image and answer
        # correctly (no copy, no locks, no crashes); scaling itself
        # cannot show on one core.
        for name, rates in pool_curves.items():
            assert all(rate > 0 for rate in rates), (name, rates)
