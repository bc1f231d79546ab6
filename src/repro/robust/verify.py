"""Invariant self-verification of a compiled Poptrie.

The update path *asserts* that readers always see a structure equivalent
to the RIB; this module *proves* it on demand.  :func:`verify_poptrie`
checks, in order:

1. **Shape** — the direct array has exactly ``2^s`` entries and every
   non-leaf entry targets a distinct node index inside the node space.
2. **Node invariants** — for every node reachable from the roots:
   ``vector`` and ``leafvec`` are disjoint (a slot is either a descendant
   internal node or part of a leaf run, never both); every leaf slot has a
   leafvec run start at or below it, so Algorithm 2's popcount never
   underflows; ``base1 + popcount(vector)`` and ``base0 + leaf count``
   stay inside the arrays; and no node is reachable by two parents (the
   structure is a forest, which is what makes block freeing sound).
3. **Allocator accounting** — the buddy allocator's own structural
   invariants hold; every reachable node/leaf slot lies inside a live
   block; every live block holds at least one reachable slot (no leaks);
   and the trie's logical ``inode_count``/``leaf_count`` equal the number
   of reachable nodes/leaf slots (no lost or double-counted frees).
4. **Semantics** (when a shadow RIB is supplied) — the trie and the RIB
   agree on every route count and on longest-prefix-match results for a
   deterministic address sample: the first/last address of each route
   (covering every boundary the table defines) plus ``samples`` seeded
   uniform addresses.

Any violation raises :class:`~repro.errors.VerificationError` with a
diagnostic naming the node/block/address concerned.  On success a
:class:`VerificationReport` summarises what was checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.poptrie import DIRECT_LEAF, Poptrie
from repro.errors import VerificationError
from repro.net.rib import Rib

#: Cap on the number of route-boundary addresses sampled in step 4; beyond
#: this the uniform sample dominates anyway and verification stays O(table).
MAX_BOUNDARY_ROUTES = 2048


@dataclass(frozen=True)
class VerificationReport:
    """What a successful verification covered."""

    nodes_checked: int
    leaves_checked: int
    node_blocks: int
    leaf_blocks: int
    samples_checked: int

    def summary(self) -> str:
        return (
            f"{self.nodes_checked} nodes, {self.leaves_checked} leaf slots, "
            f"{self.node_blocks}+{self.leaf_blocks} live blocks, "
            f"{self.samples_checked} lookups cross-checked"
        )


def _reachable_roots(trie: Poptrie) -> List[int]:
    if not trie.s:
        return [trie.root_index]
    roots: List[int] = []
    seen: Set[int] = set()
    for position, entry in enumerate(trie.direct):
        if entry & DIRECT_LEAF:
            continue
        if entry in seen:
            raise VerificationError(
                f"direct entries alias node {entry} (second at slot {position})"
            )
        seen.add(entry)
        roots.append(entry)
    return roots


def _block_cover(live: Dict[int, int], label: str) -> Dict[int, int]:
    """Map every slot of every live block to its block offset."""
    cover: Dict[int, int] = {}
    for offset, size in live.items():
        for slot in range(offset, offset + size):
            if slot in cover:
                raise VerificationError(
                    f"{label} blocks at {cover[slot]} and {offset} overlap"
                )
            cover[slot] = offset
    return cover


def check_lookups(structure, rib: Rib, samples: int, seed: int = 20150817) -> int:
    """Check ``structure`` against ``rib`` on the first and last address
    of each route (up to :data:`MAX_BOUNDARY_ROUTES` routes) plus
    ``samples`` seeded uniform addresses: :class:`VerificationError` on
    the first disagreement, else how many addresses it checked."""
    addresses: List[int] = []
    for position, (prefix, _) in enumerate(rib.routes()):
        if position >= MAX_BOUNDARY_ROUTES:
            break
        addresses += (prefix.first_address(), prefix.last_address())
    rng = random.Random(seed)
    limit = (1 << rib.width) - 1
    addresses.extend(rng.randint(0, limit) for _ in range(samples))
    wrong = structure.verify_against(rib, addresses)
    if wrong:
        raise VerificationError(
            f"{structure.name}: lookup({wrong[0]:#x}) = "
            f"{structure.lookup(wrong[0])}, but the RIB says "
            f"{rib.lookup(wrong[0])}"
        )
    return len(addresses)


def verify_poptrie(
    trie: Poptrie,
    rib: Optional[Rib] = None,
    samples: int = 1000,
    seed: int = 20150817,
) -> VerificationReport:
    """Check every structural invariant of ``trie`` (and, with ``rib``,
    semantic agreement); raises :class:`VerificationError` on the first
    violation, returns a :class:`VerificationReport` otherwise."""
    k_slots = 1 << trie.k
    use_leafvec = trie.config.use_leafvec
    node_limit = min(len(trie.vec), trie.node_alloc.capacity)
    leaf_limit = min(len(trie.leaves), trie.leaf_alloc.capacity)

    # -- 1/2: walk the forest, checking per-node invariants -------------------
    roots = _reachable_roots(trie)
    reachable_nodes: Set[int] = set()
    reachable_leaves: Set[int] = set()
    stack = list(roots)
    for root in roots:
        if root >= node_limit:
            raise VerificationError(f"root node {root} out of bounds")
    while stack:
        index = stack.pop()
        if index in reachable_nodes:
            raise VerificationError(f"node {index} reachable via two parents")
        reachable_nodes.add(index)
        vector = trie.vec[index]
        leafvec = trie.lvec[index]
        if use_leafvec:
            if vector & leafvec:
                raise VerificationError(
                    f"node {index}: vector and leafvec overlap "
                    f"(slots {vector & leafvec:#x})"
                )
            for v in range(k_slots):
                if not (vector >> v) & 1 and not leafvec & ((2 << v) - 1):
                    raise VerificationError(
                        f"node {index}: leaf slot {v} has no leafvec run start"
                    )
            leaf_count = leafvec.bit_count()
        else:
            leaf_count = k_slots - vector.bit_count()
        children = vector.bit_count()
        if children:
            base1 = trie.base1[index]
            if base1 + children > node_limit:
                raise VerificationError(
                    f"node {index}: child block [{base1}, {base1 + children}) "
                    f"overflows the node space ({node_limit})"
                )
            stack.extend(base1 + i for i in range(children))
        if leaf_count:
            base0 = trie.base0[index]
            if base0 + leaf_count > leaf_limit:
                raise VerificationError(
                    f"node {index}: leaf block [{base0}, {base0 + leaf_count}) "
                    f"overflows the leaf space ({leaf_limit})"
                )
            for slot in range(base0, base0 + leaf_count):
                if slot in reachable_leaves:
                    raise VerificationError(
                        f"leaf slot {slot} shared by two nodes"
                    )
                reachable_leaves.add(slot)

    # -- 3: buddy-allocator accounting ---------------------------------------
    for label, allocator in (("node", trie.node_alloc), ("leaf", trie.leaf_alloc)):
        try:
            allocator.check_invariants()
        except AssertionError as failure:
            raise VerificationError(
                f"{label} allocator invariant violated: {failure}"
            ) from failure

    node_live = trie.node_alloc.live_blocks()
    node_cover = _block_cover(node_live, "node")
    for index in reachable_nodes:
        if index not in node_cover:
            raise VerificationError(
                f"node {index} is reachable but lies in no live block "
                "(use-after-free)"
            )
    touched = {node_cover[index] for index in reachable_nodes}
    for offset in node_live:
        if offset not in touched:
            raise VerificationError(
                f"node block at {offset} (size {node_live[offset]}) is live "
                "but unreachable (leak)"
            )
    if trie.inode_count != len(reachable_nodes):
        raise VerificationError(
            f"inode_count {trie.inode_count} != {len(reachable_nodes)} "
            "reachable nodes (lost or double-counted allocation)"
        )

    leaf_live = trie.leaf_alloc.live_blocks()
    leaf_cover = _block_cover(leaf_live, "leaf")
    for slot in reachable_leaves:
        if slot not in leaf_cover:
            raise VerificationError(
                f"leaf slot {slot} is reachable but lies in no live block "
                "(use-after-free)"
            )
    touched = {leaf_cover[slot] for slot in reachable_leaves}
    for offset in leaf_live:
        if offset not in touched:
            raise VerificationError(
                f"leaf block at {offset} (size {leaf_live[offset]}) is live "
                "but unreachable (leak)"
            )
    if trie.leaf_count != len(reachable_leaves):
        raise VerificationError(
            f"leaf_count {trie.leaf_count} != {len(reachable_leaves)} "
            "reachable leaf slots (lost or double-counted allocation)"
        )

    # -- 4: semantic agreement with the shadow RIB ----------------------------
    samples_checked = 0
    if rib is not None:
        if rib.width != trie.width:
            raise VerificationError(
                f"RIB width {rib.width} does not match trie width {trie.width}"
            )
        samples_checked = check_lookups(trie, rib, samples, seed)

    return VerificationReport(
        nodes_checked=len(reachable_nodes),
        leaves_checked=len(reachable_leaves),
        node_blocks=len(node_live),
        leaf_blocks=len(leaf_live),
        samples_checked=samples_checked,
    )
