#!/usr/bin/env python3
"""Quickstart: build a Poptrie from routes, look addresses up, update it.

Run:  python examples/quickstart.py
"""

from repro import Poptrie, PoptrieConfig, Prefix, Rib, TransactionalPoptrie


def main() -> None:
    # 1. A RIB is a radix tree of (prefix -> FIB index) routes.
    rib = Rib()
    routes = [
        ("0.0.0.0/0", 1),        # default via FIB entry 1
        ("10.0.0.0/8", 2),
        ("10.64.0.0/10", 3),     # punches a hole in the /8
        ("192.0.2.0/24", 4),
        ("198.51.100.0/24", 2),  # same next hop as the /8 -> aggregatable
    ]
    for text, fib_index in routes:
        rib.insert(Prefix.parse(text), fib_index)

    # 2. Compile the paper's structure: k=6, leafvec, direct pointing s=18.
    trie = Poptrie.from_rib(rib, PoptrieConfig(s=18))
    print(f"compiled {trie.name}: {trie.inode_count} internal nodes, "
          f"{trie.leaf_count} leaves, {trie.memory_bytes() / 1024:.1f} KiB")

    # 3. Longest-prefix-match lookups.
    for text in ("10.65.1.1", "10.1.2.3", "192.0.2.200", "8.8.8.8"):
        key = Prefix.parse(text + "/32").value
        print(f"  {text:14s} -> FIB[{trie.lookup(key)}]")

    # 4. Batch lookups through the numpy engine.
    import numpy as np

    keys = np.array(
        [Prefix.parse(t + "/32").value
         for t in ("10.65.1.1", "10.1.2.3", "192.0.2.200", "8.8.8.8")],
        dtype=np.uint64,
    )
    print("batch:", trie.lookup_batch(keys).tolist())

    # 5. Incremental updates without recompiling (Section 3.5).
    updatable = TransactionalPoptrie(PoptrieConfig(s=18))
    for text, fib_index in routes:
        updatable.announce(Prefix.parse(text), fib_index)
    updatable.withdraw(Prefix.parse("10.64.0.0/10"))
    key = Prefix.parse("10.65.1.1/32").value
    print(f"after withdraw, 10.65.1.1 -> FIB[{updatable.lookup(key)}] "
          f"(stats: {updatable.stats})")


if __name__ == "__main__":
    main()
