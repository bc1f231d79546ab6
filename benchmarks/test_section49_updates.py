"""Section 4.9: update performance.

The paper replays one hour of RV-linx-p52 updates (23,446 updates) and
reports: 0.041 top-level replacements, 6.05 leaf and 0.48 internal-node
replacements per update; 2.51 µs per update; and full-route insertion of
REAL-Tier1-A/B at ~5 µs per prefix.

We synthesise the equivalent stream (same announce/withdraw mix) against
the scaled RV-linx-p52 table and report the same quantities.  Asserted
shape: an update replaces a handful of objects, not a rebuild — per-update
replacement counts are O(10) while the structure holds O(10^4–10^5) nodes.
"""

import random
import time

from benchmarks.conftest import SCALE, dataset, emit

from repro.bench.report import Table
from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.data.updates import generate_update_stream
from repro.net.rib import Rib
from repro.robust.txn import TransactionalPoptrie

PAPER = {
    "toplevel/update": 0.041,
    "leaves/update": 6.05,
    "inodes/update": 0.48,
    "us/update": 2.51,
}


def _copy(rib: Rib) -> Rib:
    out = Rib(width=rib.width)
    for prefix, hop in rib.routes():
        out.insert(prefix, hop)
    return out


def replay_stream(up: TransactionalPoptrie, updates) -> None:
    """Apply a stream one update at a time, one transaction each."""
    for update in updates:
        if update.kind == "A":
            up.announce(update.prefix, update.nexthop)
        else:
            up.withdraw(update.prefix)


def test_section49_incremental_updates(benchmark):
    ds = dataset("RV-linx-p52")
    count = max(int(23446 * SCALE), 200)
    stream = generate_update_stream(ds.rib, count, seed=52)
    up = TransactionalPoptrie(PoptrieConfig(s=18), rib=_copy(ds.rib))

    start = time.perf_counter()
    replay_stream(up, stream)
    elapsed = time.perf_counter() - start

    top, leaves, inodes = up.stats.per_update()
    us_per_update = elapsed / count * 1e6

    table = Table(
        ["Metric", "measured", "paper"],
        title=f"Section 4.9: incremental update cost (scale={SCALE})",
    )
    table.add_row(["updates replayed", count, 23446])
    table.add_row(["top-level replacements / update", top, PAPER["toplevel/update"]])
    table.add_row(["leaves replaced / update", leaves, PAPER["leaves/update"]])
    table.add_row(["inodes replaced / update", inodes, PAPER["inodes/update"]])
    table.add_row(["us / update (Python)", us_per_update, PAPER["us/update"]])
    emit(table, "section49_updates")

    # An update is surgical: object replacements are O(10), never a rebuild
    # (paper: 0.041 top-level, 6.05 leaves, 0.48 inodes per update).
    assert top < 0.15
    assert leaves < 80
    assert inodes < 20
    # Leaves dominate inode replacements, as in the paper (6.05 vs 0.48).
    assert leaves > inodes

    benchmark.pedantic(
        lambda: replay_stream(
            up, generate_update_stream(up.rib, 50, seed=99)
        ),
        rounds=1,
        iterations=1,
    )


def test_section49_full_route_insertion(benchmark):
    """The paper's second update workload: inserting a full table in random
    order (REAL-Tier1-A: 2.71 s, i.e. ~5.1 µs per prefix in C)."""
    ds = dataset("REAL-Tier1-A")
    routes = list(ds.rib.routes())
    random.Random(7).shuffle(routes)

    def insert_all():
        up = TransactionalPoptrie(PoptrieConfig(s=18))
        for prefix, hop in routes:
            up.announce(prefix, hop)
        return up

    start = time.perf_counter()
    up = insert_all()
    elapsed = time.perf_counter() - start
    per_prefix_us = elapsed / len(routes) * 1e6

    table = Table(
        ["Metric", "measured", "paper (C)"],
        title=f"Section 4.9: full-route random-order insertion (scale={SCALE})",
    )
    table.add_row(["routes", len(routes), 531489])
    table.add_row(["total seconds", elapsed, 2.71])
    table.add_row(["us per prefix", per_prefix_us, 5.10])
    emit(table, "section49_full_insert")

    # The incrementally built trie equals a one-shot compilation.
    rebuilt = Poptrie.from_rib(up.rib, up.trie.config)
    assert rebuilt.inode_count == up.trie.inode_count
    assert rebuilt.leaf_count == up.trie.leaf_count

    benchmark.pedantic(
        lambda: replay_stream(
            up, generate_update_stream(up.rib, 25, seed=1)
        ),
        rounds=1,
        iterations=1,
    )
