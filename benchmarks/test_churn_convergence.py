"""Churn-convergence benchmark: lookups under sustained update storms.

The §4.9 microbenchmark times updates against a quiescent trie; this one
drives the *served* system — OP_UPDATE wire batches through journal
fsync, engine apply and RCU publish, with an open-loop load generator
measuring lookup latency concurrently — across both arrival regimes
(steady Poisson churn and bursty flap storms) for the incremental
Poptrie pipeline and the measured rebuild fallback.

Persists ``BENCH_churn.json`` under ``benchmarks/results/`` with
per-engine update p50/p99, lookup p99 during churn, RCU swap rate and
convergence lag; the committed repo-root artifact is the same sweep
recorded at ``REPRO_SCALE=1.0``.
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import RESULTS_DIR, SCALE

from repro.bench.churn_scenario import emit_churn_bench

#: The engine matrix: incremental surgery vs. full-recompile fallback.
ENGINES = tuple(
    os.environ.get("REPRO_CHURN_ENGINES", "Poptrie18,SAIL").split(",")
)
#: Stream size per (engine, regime) cell; the full-scale artifact uses
#: more to steady the percentiles.
UPDATES = int(os.environ.get("REPRO_CHURN_UPDATES", "512"))
UPDATE_RATE = float(os.environ.get("REPRO_CHURN_RATE", "1500"))


def test_churn_convergence_artifact():
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_churn.json"
    result = emit_churn_bench(
        path=str(path),
        dataset_name="RV-linx-p52",
        scale=SCALE,
        engines=ENGINES,
        regimes=("steady", "bursty"),
        update_count=UPDATES,
        update_rate=UPDATE_RATE,
        seed=52,
    )
    print()
    for row in result["rows"]:
        conv = row["convergence"]
        lag = (
            f"{conv['lag_s'] * 1e3:8.1f}ms"
            if conv.get("lag_s") is not None
            else "   (none)"
        )
        print(
            f"{row['engine']:>10} {row['regime']:>7} "
            f"[{row['update_engine']:>11}]: "
            f"update wire p50 {row['updates']['wire_latency_us']['p50']:8.0f}us "
            f"p99 {row['updates']['wire_latency_us']['p99']:8.0f}us | "
            f"lookup p99 {row['lookup_during_churn_us']['p99']:7.0f}us | "
            f"{row['rcu']['swap_rate_hz']:6.1f} swaps/s | "
            f"convergence {lag}"
        )

    assert {r["regime"] for r in result["rows"]} == {"steady", "bursty"}
    for row in result["rows"]:
        # The scenario's contract: churn costs zero errored lookups and
        # every cell actually applied updates and converged.
        assert row["updates"]["errors"] == 0, row
        assert row["updates"]["applied"] > 0, row
        assert row["lookup"]["errors"] == 0, row
        assert row["convergence"]["observed"], row
        # The production pipeline: in-place engines publish without a
        # handle swap, and each wire batch costs one fsync.
        assert row["rcu"]["swaps"] == 0, row
        assert 0 < row["journal"]["fsyncs"] < row["journal"]["appends"], row

    persisted = json.loads(path.read_text())
    assert persisted["scenario"] == "churn_convergence"
    assert len(persisted["rows"]) == 2 * len(ENGINES)
