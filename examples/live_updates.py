#!/usr/bin/env python3
"""Replay a BGP update stream against a live FIB (Section 3.5 / 4.9).

Builds a table, synthesises an hour's worth of announce/withdraw churn
(scaled), applies it incrementally while continuously verifying lookups,
and prints the replacement accounting the paper reports.

Run:  python examples/live_updates.py [route_count] [update_count]
"""

import random
import sys
import time

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.data.synth import generate_table
from repro.data.updates import generate_update_stream
from repro.robust.txn import TransactionalPoptrie


def main() -> None:
    route_count = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    update_count = int(sys.argv[2]) if len(sys.argv) > 2 else 2_000

    rib, _ = generate_table(route_count, n_nexthops=32, seed=3)
    stream = generate_update_stream(rib, update_count, seed=52)
    announces = sum(1 for u in stream if u.kind == "A")
    print(f"table: {len(rib)} routes; stream: {announces} announcements, "
          f"{len(stream) - announces} withdrawals")

    up = TransactionalPoptrie(PoptrieConfig(s=18), rib=rib)
    rng = random.Random(1)
    probes = [rng.getrandbits(32) for _ in range(200)]

    start = time.perf_counter()
    for i, update in enumerate(stream):
        if update.kind == "A":
            up.announce(update.prefix, update.nexthop)
        else:
            up.withdraw(update.prefix)
        if i % 500 == 499:
            # Continuous verification: the FIB always matches the RIB.
            assert all(up.lookup(k) == up.rib.lookup(k) for k in probes)
    elapsed = time.perf_counter() - start

    top, leaves, inodes = up.stats.per_update()
    print(f"\napplied {len(stream)} updates in {elapsed:.2f} s "
          f"({elapsed / len(stream) * 1e6:.1f} us/update in Python; "
          "the paper's C implementation: 2.51 us)")
    print(f"per update: {top:.3f} top-level replacements, "
          f"{leaves:.2f} leaves, {inodes:.2f} internal nodes "
          "(paper: 0.041 / 6.05 / 0.48)")

    rebuilt = Poptrie.from_rib(up.rib, up.trie.config)
    print(f"structure equals a fresh compile: "
          f"{rebuilt.inode_count == up.trie.inode_count and rebuilt.leaf_count == up.trie.leaf_count}")


if __name__ == "__main__":
    main()
