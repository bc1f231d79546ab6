"""Benchmark harness: rate measurement, multi-core scaling, reporting.

- :mod:`repro.bench.harness` — lookup-rate and compile-time measurement,
  plus the standard algorithm roster used across Tables 2–5 and
  Figures 9/12.
- :mod:`repro.bench.parallel` — Figure 8 scaling through the worker pool.
- :mod:`repro.bench.report` — fixed-width table rendering for the
  paper-shaped outputs every benchmark prints.
"""

from repro.bench.harness import (
    RateResult,
    measure_compile_time,
    measure_rate_batch,
    measure_rate_scalar,
)
from repro.bench.report import Table
from repro.lookup.registry import build_structures, standard_roster

__all__ = [
    "RateResult",
    "build_structures",
    "measure_compile_time",
    "measure_rate_batch",
    "measure_rate_scalar",
    "standard_roster",
    "Table",
]
