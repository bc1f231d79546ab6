"""Tier-1 churn smoke: the full pipeline at toy scale.

One incremental engine and one rebuild fallback go through the
production update pipeline — OP_UPDATE wire batches, ordered
validation, journal with one fsync per batch, engine apply, publish —
with a concurrent load generator, exactly as
``repro churn`` and the CI churn-smoke job run it, just small enough
for the unit-test tier (tens of updates, sub-second schedule).
"""

from __future__ import annotations

import pytest

from repro.bench.churn_scenario import run_churn_bench


@pytest.fixture(scope="module")
def churn_result():
    return run_churn_bench(
        dataset_name="RV-linx-p52",
        scale=0.001,
        engines=("Poptrie18", "DIR-24-8"),
        regimes=("steady",),
        update_count=48,
        update_rate=600.0,
        update_batch=8,
        lookup_rate=200.0,
        lookup_connections=1,
        settle_timeout=60.0,
        seed=11,
    )


def test_churn_rows_cover_the_engine_matrix(churn_result):
    rows = churn_result["rows"]
    assert [(r["engine"], r["regime"]) for r in rows] == [
        ("Poptrie18", "steady"),
        ("DIR-24-8", "steady"),
    ]
    engines = {r["engine"]: r for r in rows}
    assert engines["Poptrie18"]["update_engine"] == "incremental"
    assert engines["Poptrie18"]["supports_incremental"]
    assert engines["DIR-24-8"]["update_engine"] == "rebuild"
    assert not engines["DIR-24-8"]["supports_incremental"]


def test_churn_applies_updates_without_lookup_errors(churn_result):
    for row in churn_result["rows"]:
        assert row["updates"]["errors"] == 0, row
        assert row["updates"]["applied"] > 0, row
        assert row["lookup"]["errors"] == 0, row
        assert row["lookup"]["completed"] > 0, row


def test_churn_measures_the_full_pipeline(churn_result):
    for row in churn_result["rows"]:
        stages = row["updates"]["stages_us"]
        assert set(stages) == {"journal", "fsync", "apply", "publish"}, row
        assert stages["fsync"]["p50"] > 0, row
        assert row["updates"]["wire_latency_us"]["p99"] > 0
        assert row["lookup_during_churn_us"]["p99"] > 0
        # The production pipeline: both engines update in place, so
        # publishing needs no handle swap.
        assert row["rcu"]["swaps"] == 0, row
        journal = row["journal"]
        assert journal["appends"] >= row["updates"]["applied"]
        # Group commit: one fsync per wire batch (6 of 8 updates, plus
        # the convergence sentinel), not one per record.
        assert journal["fsyncs"] == 7, row


def test_churn_convergence_observed(churn_result):
    for row in churn_result["rows"]:
        conv = row["convergence"]
        assert conv["observed"], conv
        assert conv["lag_s"] is not None and conv["lag_s"] >= 0
        assert conv["ack_us"] > 0
