"""Tests for BGP update-stream synthesis and replay (Section 4.9)."""

import pytest

from repro.core.poptrie import PoptrieConfig
from repro.robust.txn import TransactionalPoptrie
from repro.data.synth import generate_table
from repro.data.updates import (
    PAPER_ANNOUNCE_FRACTION,
    PAPER_UPDATE_COUNT,
    Update,
    generate_update_stream,
)
from repro.net.rib import Rib


@pytest.fixture(scope="module")
def table():
    rib, _ = generate_table(1500, 30, seed=11)
    return rib


class TestGeneration:
    def test_count(self, table):
        stream = generate_update_stream(table, 500, seed=1)
        assert len(stream) == 500

    def test_paper_constants(self):
        assert PAPER_UPDATE_COUNT == 23446
        assert PAPER_ANNOUNCE_FRACTION == pytest.approx(18141 / 23446)

    def test_announce_fraction(self, table):
        stream = generate_update_stream(table, 4000, seed=2)
        announces = sum(1 for update in stream if update.kind == "A")
        assert abs(announces / len(stream) - PAPER_ANNOUNCE_FRACTION) < 0.05

    def test_withdrawals_target_live_prefixes(self, table):
        """Replaying the stream against the table must never fail — every
        withdrawal targets a prefix that is live at that point."""
        stream = generate_update_stream(table, 2000, seed=3)
        shadow = Rib()
        for prefix, hop in table.routes():
            shadow.insert(prefix, hop)
        for update in stream:
            if update.kind == "A":
                shadow.insert(update.prefix, update.nexthop)
            else:
                shadow.delete(update.prefix)  # raises KeyError if not live

    def test_deterministic(self, table):
        a = generate_update_stream(table, 300, seed=4)
        b = generate_update_stream(table, 300, seed=4)
        assert a == b

    def test_announce_hops_in_range(self, table):
        stream = generate_update_stream(table, 1000, seed=5, max_nexthop=30)
        assert all(
            1 <= update.nexthop <= 30
            for update in stream
            if update.kind == "A"
        )

    def test_works_on_empty_table(self):
        stream = generate_update_stream(Rib(), 100, seed=6)
        assert len(stream) == 100
        assert stream[0].kind == "A"


class TestReplay:
    def test_apply_updates_keeps_fib_consistent(self, table):
        up = TransactionalPoptrie(PoptrieConfig(s=16), rib=_copy(table))
        stream = generate_update_stream(table, 400, seed=7)
        report = up.apply_stream(stream)
        assert report.applied == 400
        import random

        rng = random.Random(8)
        for _ in range(2000):
            key = rng.getrandbits(32)
            assert up.lookup(key) == up.rib.lookup(key)

    def test_stats_accumulate(self, table):
        up = TransactionalPoptrie(PoptrieConfig(s=16), rib=_copy(table))
        up.apply_stream(generate_update_stream(table, 200, seed=9))
        assert up.stats.updates >= 190  # same-hop re-announces are no-ops


def _copy(rib: Rib) -> Rib:
    out = Rib(width=rib.width)
    for prefix, hop in rib.routes():
        out.insert(prefix, hop)
    return out
