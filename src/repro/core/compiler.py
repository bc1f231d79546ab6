"""The Poptrie compile: a RIB into node, leaf and direct arrays, level by
level in numpy.

:meth:`repro.core.poptrie.Poptrie.from_rib` builds through
:func:`compile_rib`.  It produces what the scalar path
(:func:`repro.core.poptrie.build_scalar`: ``expand_node`` and the
``Serializer``, one node at a time) produces, byte for byte: the six
arrays with their lengths, both buddy allocators' states, the node and
leaf counts and the memory map.  Three steps:

1. **Expansion** (:func:`_expand`).  Controlled prefix expansion of the
   RIB's node columns, one binary depth at a time over a whole batch of
   nodes: the direct array's 2^s slots below the root, then each k-bit
   level below the subtrees the level above left.  Each node's route is
   folded into the next hop it passes down, and a run ends where the
   tree does, so every slot is written once.  A slot that reaches a
   node with children at the level's last depth is internal.  Levels
   are expanded in batches of :data:`SLOTS` slots, in the narrowest
   value type the RIB's FIB indices fit, which bounds the temporaries.
2. **Node fields** (:func:`_fields`).  ``vector`` and ``leafvec`` are
   bit reductions over each node's slots.  With leafvec the leaves are
   the non-internal slots whose value differs from the previous
   non-internal slot (Section 3.3's hole punching: the run continues
   across internal slots); without it every non-internal slot is one.
3. **Placement** (:func:`_place`).  The levels give each node its
   subtree size and so its preorder and postorder rank.  The scalar
   path asks the node allocator for a 1-slot block per subtree root and
   then each node's children block, in preorder, and the leaf
   allocator for each node's leaf block in postorder; the ranks replay
   both sequences through :meth:`~repro.mem.buddy.BuddyAllocator.alloc_many`,
   which returns the same addresses.  The same ranks order the ``build``
   and ``alloc`` fault-site visits, the structural-limit check on leaf
   values and the memory map's region moves as the scalar path makes
   them.
"""

from __future__ import annotations

import traceback
from array import array
from typing import List, Optional, Tuple

import numpy as np

from repro.core.poptrie import DIRECT_LEAF
from repro.errors import StructuralLimitError
from repro.robust.faults import active_plan, fault_point

#: Slots expanded per numpy pass over a level (2^18: 4,096 nodes at
#: k = 6), which bounds the per-pass temporaries to a few MiB.
SLOTS = 1 << 18

#: The integer type of node ranks, counts and walk clocks: a compile
#: holds far fewer than 2^31 / 6 nodes.
RANK = np.int32

#: One level's nodes in breadth-first order: ``vector``, ``leafvec``,
#: child count, leaf count and the leaf values, node after node.
Level = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def compile_rib(trie, rib) -> None:
    """Fill the fresh, empty ``trie`` from ``rib``."""
    top, levels = _expand_levels(trie, rib)
    roots = _place(trie, levels) if levels else np.zeros(0, np.int64)
    if trie.s:
        values, at = top
        direct = np.frombuffer(trie.direct, np.uint32)
        direct[:] = values
        direct |= DIRECT_LEAF
        direct[at] = roots
        del direct
    elif len(roots):
        trie.root_index = int(roots[0])


def _expand_levels(trie, rib):
    """The direct array's slots (values and the subtree positions) and
    the trie's levels, top down.

    The RIB's columns are read through numpy views, and a view alive
    stops the RIB's arrays from resizing (a failed staged rebuild
    unfolds its message into the RIB, and later messages insert).  So
    none may outlive this call: when it raises, the frames its
    traceback keeps lose their locals.
    """
    columns = tuple(
        np.frombuffer(column, np.uint32)
        for column in (rib.left, rib.right, rib.route)
    )
    try:
        return _levels(trie, rib, columns)
    except BaseException as error:
        traceback.clear_frames(error.__traceback__)
        raise
    finally:
        del columns


def _levels(trie, rib, columns):
    value_type = np.uint16 if rib.max_fib_index() < 1 << 16 else np.uint32
    k, use_leafvec = trie.k, trie.config.use_leafvec
    top = None
    ids = np.zeros(1, np.uint32)  # the root, ROOT
    inherited = np.zeros(1, value_type)
    if trie.s:
        values, subtrees = _expand(columns, ids, inherited, trie.s, value_type)
        at = np.flatnonzero(subtrees)
        ids, inherited = subtrees[at], values[at]
        del subtrees
        top = (values, at)
    levels: List[Level] = []
    step = max(SLOTS >> k, 1)
    while len(ids):
        parts = [
            _fields(
                *_expand(columns, ids[i:i + step], inherited[i:i + step], k, value_type),
                k, use_leafvec,
            )
            for i in range(0, len(ids), step)
        ]
        joined = [np.concatenate(column) for column in zip(*parts)]
        del parts
        levels.append(tuple(joined[:5]))
        ids, inherited = joined[5], joined[6]
    return top, levels


def _expand(columns, ids, inherited, bits: int, value_type):
    """Expand ``bits`` bits below each RIB node in ``ids``.

    Returns ``(values, subtrees)``, ``len(ids) * 2**bits`` slots each,
    node after node in slot order: the next hop a slot ends with, and
    the id of the node with children it reaches at depth ``bits`` (0 for
    a leaf slot).  ``inherited`` is each node's best route strictly
    above it.  The frontier holds live nodes only, so a missing child
    (id 0) is never looked up; its half fills with the next hop its
    parent passes down.
    """
    left, right, route = columns
    width = 1 << bits
    values = np.empty(len(ids) * width, value_type)
    subtrees = np.zeros(len(ids) * width, np.uint32)
    at = np.arange(len(ids), dtype=np.intp) * width
    for depth in range(bits + 1):
        hop = route[ids]
        inherited = np.where(hop != 0, hop, inherited)  # NO_ROUTE is 0
        lows, highs = left[ids], right[ids]
        if depth == bits:
            values[at] = inherited
            inner = (lows | highs) != 0
            subtrees[at[inner]] = ids[inner]
            break
        half = width >> (depth + 1)
        has_low, has_high = lows != 0, highs != 0
        gap = ~has_low
        _fill(values, at[gap], half, inherited[gap])
        gap = ~has_high
        _fill(values, at[gap] + half, half, inherited[gap])
        ids = np.concatenate((lows[has_low], highs[has_high]))
        at = np.concatenate((at[has_low], at[has_high] + half))
        inherited = np.concatenate((inherited[has_low], inherited[has_high]))
    return values, subtrees


def _fill(values: np.ndarray, starts: np.ndarray, span: int, fill) -> None:
    """Fill ``span`` slots from each of ``starts`` (aligned to ``span``)."""
    if span == 1:
        values[starts] = fill
    else:
        values.reshape(-1, span)[starts // span] = fill[:, None]


def _fields(values, subtrees, k: int, use_leafvec: bool):
    """The node fields of expanded slots, and the next level's subtrees
    with the next hop each inherits."""
    slots = 1 << k
    values = values.reshape(-1, slots)
    subtrees = subtrees.reshape(-1, slots)
    inner = subtrees != 0
    leafy = ~inner
    if use_leafvec:
        leaf = leafy.copy()
        leaf[:, 1:] &= values[:, 1:] != values[:, :-1]
        # Where a node has internal slots, compare each slot with the
        # last non-internal slot before it (-1: none) instead.
        rows = np.flatnonzero(inner.any(axis=1))
        if len(rows):
            shaded = values[rows]
            last = np.where(leafy[rows], np.arange(slots, dtype=np.int8), np.int8(-1))
            np.maximum.accumulate(last, axis=1, out=last)
            previous = np.empty_like(last)
            previous[:, 0] = -1
            previous[:, 1:] = last[:, :-1]
            before = np.take_along_axis(shaded, np.maximum(previous, 0), axis=1)
            leaf[rows] = leafy[rows] & ((previous < 0) | (shaded != before))
        leafvec = _pack(leaf)
    else:
        leaf = leafy
        leafvec = np.zeros(len(values), np.uint64)
    return (
        _pack(inner), leafvec, inner.sum(axis=1, dtype=RANK),
        leaf.sum(axis=1, dtype=RANK),
        values[leaf], subtrees[inner], values[inner],
    )


def _pack(bits: np.ndarray) -> np.ndarray:
    """Each row of booleans as a uint64 bitmap, slot v at bit v."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    if packed.shape[1] < 8:
        packed = np.concatenate(
            (packed, np.zeros((len(packed), 8 - packed.shape[1]), np.uint8)), axis=1
        )
    return packed.view("<u8")[:, 0].astype(np.uint64)


def _place(trie, levels: List[Level]) -> np.ndarray:
    """Allocate and write every level's nodes and leaves as the scalar
    path would; returns the subtree roots' node indices.

    Empties ``levels``, and drops each per-node array once its last
    user is done, so placement holds a few of them at a time.
    """
    counts = [len(level[0]) for level in levels]
    start = np.cumsum([0] + counts)
    enter, leave, parents, ranks = _walk_order(levels, counts)
    children = np.concatenate([level[2] for level in levels])
    leaf_counts = np.concatenate([level[3] for level in levels])
    vectors = [level[:2] for level in levels]
    values = [level[4] for level in levels]
    levels.clear()
    # The node allocator serves each root's slot, then each node's
    # children block, in preorder; the leaf allocator each leaf block
    # in postorder.
    n_roots = counts[0]
    inner = np.flatnonzero(children)
    node_keys = np.concatenate((enter[:n_roots], enter[inner] + 2))
    node_order = np.argsort(node_keys, kind="stable")
    leafy = np.flatnonzero(leaf_counts)
    leafy = leafy[np.argsort(leave[leafy], kind="stable")]

    bad = _first_wide_leaf(trie, values, leaf_counts, leave)
    if active_plan() is not None:
        stop = None if bad is None else leave[bad[0]]
        _replay_faults(enter, node_keys, leave[leafy], stop)
    if bad is not None:
        raise bad[1]
    del enter

    # Each allocation that grew its array, at the walk clock the scalar
    # path made it, to replay the memory map's region moves in order.
    sizes = np.concatenate((np.ones(n_roots, RANK), children[inner]))[node_order]
    del children
    offsets, node_grows = trie.node_alloc.alloc_many(sizes.tolist())
    del sizes
    grows = [(node_keys[node_order[i]], "poptrie.nodes", c) for i, c in node_grows]
    del node_keys
    placed = np.empty(len(offsets), np.uint32)
    placed[node_order] = offsets
    del offsets, node_order
    roots = placed[:n_roots].copy()
    base1 = np.zeros(len(leaf_counts), np.uint32)
    base1[inner] = placed[n_roots:]
    del placed, inner
    offsets, leaf_grows = trie.leaf_alloc.alloc_many(leaf_counts[leafy].tolist())
    grows += [(leave[leafy[i]], "poptrie.leaves", c) for i, c in leaf_grows]
    del leave
    base0 = np.zeros(len(leaf_counts), np.uint32)
    base0[leafy] = offsets
    del offsets, leafy
    for _, name, capacity in sorted(grows):
        trie.memmap.resize_region(name, capacity)
    trie._node_region = trie.memmap.regions["poptrie.nodes"]
    trie._leaf_region = trie.memmap.regions["poptrie.leaves"]

    node_capacity = trie.node_alloc.capacity
    trie.vec = array("Q", [0]) * node_capacity
    trie.lvec = array("Q", [0]) * node_capacity
    trie.base0 = array("I", [0]) * node_capacity
    trie.base1 = array("I", [0]) * node_capacity
    trie.leaves = array(trie.leaves.typecode, [0]) * trie.leaf_alloc.capacity
    columns = [
        np.frombuffer(trie.vec, np.uint64), np.frombuffer(trie.lvec, np.uint64),
        np.frombuffer(trie.base0, np.uint32), np.frombuffer(trie.base1, np.uint32),
    ]
    leaf_view = np.frombuffer(trie.leaves, trie.leaves.typecode)
    step = max(SLOTS >> trie.k, 1)
    # Level by level, each node's index: its root slot, or its parent's
    # children block plus its rank among the siblings.
    index = roots
    for depth in range(len(counts)):
        first, last = start[depth], start[depth + 1]
        if depth:
            above = base1[start[depth - 1]:first]
            index = above[parents[depth]] + ranks[depth].astype(np.uint32)
            parents[depth] = ranks[depth] = None
        fields = (*vectors[depth], base0[first:last], base1[first:last])
        for column, field in zip(columns, fields):
            column[index] = field
        vectors[depth] = None
        _write_leaves(leaf_view, base0[first:last], leaf_counts[first:last],
                      values[depth], step)
        values[depth] = None
    del columns, leaf_view
    trie.inode_count = len(leaf_counts)
    trie.leaf_count = int(leaf_counts.sum(dtype=np.int64))
    return roots


def _write_leaves(leaves, blocks, per_node, values, step: int) -> None:
    """Write one level's leaf values (node after node) to each node's
    leaf block, ``step`` nodes at a time."""
    ends = np.cumsum(per_node, dtype=np.int64)
    for i in range(0, len(per_node), step):
        count, end = per_node[i:i + step], ends[i:i + step]
        low, high = int(end[0] - count[0]), int(end[-1])
        slot = np.repeat(blocks[i:i + step].astype(np.int64) - (end - count), count)
        slot += np.arange(low, high)
        leaves[slot] = values[low:high]


def _walk_order(levels: List[Level], counts: List[int]):
    """Each node's place in the scalar path's depth-first walk.

    Returns the walk clock at each node's preorder visit (where it takes
    its root slot if it is a subtree root, is built and takes its
    children block) and at its postorder visit (where it takes its leaf
    block), and per level each node's parent and rank among its
    siblings.  From subtree sizes (bottom up) and preorder ranks (top
    down: the parent's, plus one, plus the earlier siblings' sizes):
    the preorder visit falls at 2·pre − depth, the postorder visit at
    2·(pre + size) − 1 − depth, and three ticks a visit order the events
    within one.
    """
    children = [level[2] for level in levels]
    firsts = [np.cumsum(c, dtype=RANK) - c for c in children]
    sizes = [np.ones(counts[-1], RANK)]
    for count, first in zip(children[-2::-1], firsts[-2::-1]):
        total = np.concatenate((np.zeros(1, RANK), np.cumsum(sizes[0], dtype=RANK)))
        sizes.insert(0, 1 + total[first + count] - total[first])
    pre = [np.cumsum(sizes[0], dtype=RANK) - sizes[0]]
    parents, ranks = [None], [None]
    for depth in range(len(levels) - 1):
        parent = np.repeat(np.arange(counts[depth], dtype=RANK), children[depth])
        first = firsts[depth][parent]
        before = np.cumsum(sizes[depth + 1], dtype=RANK) - sizes[depth + 1]
        pre.append(pre[depth][parent] + 1 + before - before[first])
        parents.append(parent)
        ranks.append(np.arange(counts[depth + 1], dtype=RANK) - first)
    depths = np.repeat(np.arange(len(levels), dtype=RANK), counts)
    pre, size = np.concatenate(pre), np.concatenate(sizes)
    enter = 3 * (2 * pre - depths)
    leave = 3 * (2 * (pre + size) - 1 - depths)
    return enter, leave, parents, ranks


def _first_wide_leaf(trie, values: List[np.ndarray], leaf_counts, leave):
    """``(node, error)`` for the first leaf, in the scalar path's write
    order, whose value does not fit ``leaf_bits``; ``None`` if all fit.
    ``values`` holds each level's leaf values."""
    bits = trie.config.leaf_bits
    if all(int(level.max(initial=0)) < 1 << bits for level in values):
        return None
    leaves = np.concatenate(values)
    owner = np.repeat(np.arange(len(leaf_counts)), leaf_counts)
    wide = np.flatnonzero(leaves >= 1 << bits)
    first = wide[np.argmin(leave[owner[wide]])]
    return int(owner[first]), StructuralLimitError(
        f"FIB index {int(leaves[first])} exceeds {bits}-bit leaf"
    )


def _replay_faults(enter, node_keys, leaf_keys, stop: Optional[int]) -> None:
    """Visit the ``build`` site once per node and the ``alloc`` site once
    per block in the scalar path's order, up to the event ``stop`` (the
    leaf block where the scalar path meets a leaf too wide for it)."""
    keys = np.concatenate((enter + 1, node_keys, leaf_keys))
    builds = len(enter)
    for event in np.argsort(keys, kind="stable").tolist():
        fault_point("build" if event < builds else "alloc")
        if keys[event] == stop:
            return
