"""The GeoIP value-plane scenario: the ``BENCH_geoip.json`` numbers.

One synthetic GeoIP table (country-code values,
:func:`repro.data.geoip.generate_geoip_table`) compiled three ways —

- **raw** — straight from the generated RIB;
- **simple** — after the paper's exact aggregation
  (:func:`repro.core.aggregate.aggregate_simple`);
- **uniform<k>** — after the swoiow same-value subtree pruning at the
  structure's own stride (:func:`repro.core.aggregate.aggregate_uniform`)

— measuring, per build: route/node/leaf counts and memory (how much the
value column's low entropy buys), the lookup depth distribution over the
query stream (aggregation pulls matches up toward the direct-pointing
array), and the scalar-vs-kernel result fingerprints (the oracle
agreement the acceptance gate checks: value ids flow through the
branchless kernels unchanged).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.aggregate import aggregated_rib
from repro.data.geoip import generate_geoip_table
from repro.data.traffic import random_addresses
from repro.lookup.base import scalar_batch
from repro.lookup.registry import get


def _sha256(results: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(results, dtype=np.uint32).tobytes()
    ).hexdigest()


def _depth_histogram(structure, keys) -> Optional[Dict[str, int]]:
    depth_of = getattr(structure, "depth_of", None)
    if depth_of is None:
        return None
    histogram: Dict[int, int] = {}
    for key in keys:
        depth = depth_of(int(key))
        histogram[depth] = histogram.get(depth, 0) + 1
    return {str(depth): histogram[depth] for depth in sorted(histogram)}


def _build_row(name: str, span: Optional[int], rib, entry, keys) -> Dict:
    structure = entry.from_rib(rib)
    scalar_sha = _sha256(scalar_batch(structure.lookup, keys))
    kernel_sha = None
    if structure.supports_batch():
        kernel_sha = _sha256(structure.lookup_batch(keys))
    histogram = _depth_histogram(structure, keys)
    mean_depth = None
    if histogram:
        total = sum(histogram.values())
        mean_depth = (
            sum(int(d) * n for d, n in histogram.items()) / total
        )
    return {
        "aggregation": name,
        "span": span,
        "routes": len(rib),
        "inodes": getattr(structure, "inode_count", None),
        "leaves": getattr(structure, "leaf_count", None),
        "memory_bytes": structure.memory_bytes(),
        "values": None if structure.values is None
        else structure.values.describe(),
        "depth_histogram": histogram,
        "mean_depth": mean_depth,
        "scalar_sha256": scalar_sha,
        "kernel_sha256": kernel_sha,
        "oracle_match": (
            None if kernel_sha is None else kernel_sha == scalar_sha
        ),
    }


def geoip_scenario(
    n_prefixes: int = 20_000,
    queries: int = 50_000,
    seed: int = 1,
    algorithm: str = "Poptrie18",
    spans: Sequence[int] = (6,),
) -> Dict:
    """Run the scenario; returns the ``BENCH_geoip.json`` payload.

    ``spans`` lists the :func:`aggregate_uniform` strides to measure in
    addition to the raw and simple-aggregated builds (Poptrie's chunk
    stride is 6, DIR-24-8-ish structures want 8).
    """
    rib, values = generate_geoip_table(n_prefixes, seed=seed)
    entry = get(algorithm)
    keys = random_addresses(queries, seed=seed)
    builds = [_build_row("none", None, rib, entry, keys)]
    builds.append(
        _build_row("simple", 1, aggregated_rib(rib), entry, keys)
    )
    for span in spans:
        builds.append(
            _build_row(
                f"uniform{span}", span, aggregated_rib(rib, span=span),
                entry, keys,
            )
        )
    raw = builds[0]
    for row in builds[1:]:
        if raw["inodes"] and row["inodes"] is not None:
            row["inode_reduction_vs_raw"] = 1 - row["inodes"] / raw["inodes"]
        row["route_reduction_vs_raw"] = 1 - row["routes"] / raw["routes"]
    return {
        "scenario": "geoip",
        "algorithm": algorithm,
        "prefixes": n_prefixes,
        "countries": len(values),
        "queries": queries,
        "seed": seed,
        "value_kind": values.kind,
        "oracle_agreement": all(
            row["oracle_match"] is not False for row in builds
        ),
        "builds": builds,
    }
