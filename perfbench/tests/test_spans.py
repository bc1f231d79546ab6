"""Span recording and the per-layer analysis, on synthetic spans."""

import json
import os

import pytest

import run
import spans
from spans import CONTROL_IDS, Tracer, analyze


def span(sid, name, start, end, parent=0, value=None):
    return [sid, name, start, end, parent, value]


def test_txn_self_time_subtracts_snapshot_journal_and_rib_children():
    # One 100 us message: two updates, each with a snapshot, a journal
    # append (holding a nested flush) and a RIB mutation.
    us = 1e-6
    records = [
        span(1, "txn.msg", 0, 100 * us, value=2),
        span(2, "txn.update", 0, 50 * us, parent=1),
        span(3, "mem.snapshot", 1 * us, 21 * us, parent=2),
        span(4, "journal.append", 22 * us, 32 * us, parent=2),
        span(5, "journal.flush", 25 * us, 30 * us, parent=4),
        span(6, "rib.update", 33 * us, 35 * us, parent=2),
        span(7, "txn.update", 50 * us, 100 * us, parent=1),
        span(8, "mem.snapshot", 51 * us, 71 * us, parent=7),
    ]
    out = analyze(records, {})
    assert out["txn.msg_us"] == pytest.approx(100)
    # 100 - 2 x 20 (snapshots) - 10 (append, its flush not twice) - 2 (rib)
    assert out["txn.self_us"] == pytest.approx(48)
    assert out["mem.snapshot_calls"] == 1.0
    assert out["mem.snapshot_share"] == pytest.approx(0.4)
    assert out["check.txn_ratio"] == pytest.approx(1.0)
    assert out["txn.update_us"] == pytest.approx(50)


def test_txn_check_catches_step_p50s_that_do_not_add_up_to_the_message():
    # Two 100 us messages: one almost all snapshot, one almost all its
    # own code.  Each message is fully accounted for, but the step p50s
    # (10 us snapshot, 10 us self) explain a fifth of the message p50.
    us = 1e-6
    records = [
        span(1, "txn.msg", 0, 100 * us, value=1),
        span(2, "mem.snapshot", 0, 90 * us, parent=1),
        span(3, "txn.msg", 200 * us, 300 * us, value=1),
        span(4, "mem.snapshot", 200 * us, 210 * us, parent=3),
    ]
    out = analyze(records, {})
    assert out["check.txn_ratio"] == pytest.approx(0.2)
    assert abs(out["check.txn_ratio"] - 1.0) > run.ACCOUNTING_TOLERANCE


def test_residence_pairs_decode_and_encode_by_request_id():
    us = 1e-6
    records = [
        span(1, "protocol.decode", 0, 5 * us, value=7),
        span(2, "protocol.decode", 10 * us, 15 * us, value=8),
        span(3, "protocol.decode", 12 * us, 13 * us, value=CONTROL_IDS + 1),
        span(4, "lookup.call", 215 * us, 235 * us, value=32),
        span(5, "protocol.encode", 240 * us, 245 * us, value=7),
        span(6, "protocol.encode", 245 * us, 250 * us, value=8),
        span(7, "protocol.encode", 250 * us, 251 * us, value=CONTROL_IDS + 1),
    ]
    out = analyze(records, {})
    assert out["service.residence_p50_us"] == pytest.approx(240)
    assert out["service.queue_p50_us"] == pytest.approx(200)
    assert out["service.fanout_p50_us"] == pytest.approx(5)
    assert out["lookup.keys_per_call"] == 32
    assert out["lookup.ns_per_key"] == pytest.approx(20e3 / 32)


def test_tracer_wraps_methods_and_classmethods_and_filters_by_parent():
    class Table:
        @classmethod
        def build(cls, n):
            return cls()

        def insert(self, key):
            return key

        def apply(self, keys):
            return [self.insert(k) for k in keys]

    tracer = Tracer()
    tracer.wrap(Table, "build", "core.build", value=lambda args, _: args[1])
    tracer.wrap(Table, "apply", "txn.update")
    tracer.wrap(Table, "insert", "rib.update", only_under="txn.update")
    table = Table.build(3)
    table.insert(1)  # outside an update: not recorded
    assert table.apply([1, 2]) == [1, 2]
    names = [r[spans.NAME] for r in tracer.spans]
    assert names == ["core.build", "rib.update", "rib.update", "txn.update"]
    assert tracer.spans[0][spans.VALUE] == 3
    parent = tracer.spans[3][spans.ID]
    assert all(r[spans.PARENT] == parent for r in tracer.spans[1:3])


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as stream:
        declared = json.load(stream)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
