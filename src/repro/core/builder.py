"""The scalar Poptrie builder: one node at a time, through TmpNode trees.

Whole tables are compiled by :mod:`repro.core.compiler`, level by level
in numpy (:meth:`repro.core.poptrie.Poptrie.from_rib`).  This module is
the node-at-a-time path beside it, with two jobs: the incremental
updater (:mod:`repro.core.update`) stages Section 3.5's patches through
it, and :func:`repro.core.poptrie.build_scalar` runs it over a whole
table as the oracle the compile is held to, byte for byte.  It works in
two phases:

1. **Expansion** (:func:`expand_node`): controlled prefix expansion of the
   binary radix tree (:meth:`repro.net.rib.Rib.expand`, one k-bit chunk
   at a time) into temporary 2^k-ary nodes.  Each temporary node
   records its ``vector`` (bit v set ⇔ slot v has a descendant internal
   node, Section 3.1), its ``leafvec`` and compressed leaf list
   (Section 3.3), and its child list.

2. **Serialization** (:class:`Serializer`): lays the temporary nodes out in
   the contiguous internal-node and leaf arrays.  Children of one node are
   placed in one contiguous block (that is what makes ``base1 + popcount``
   indexing work), allocated from the buddy allocator so the incremental
   update path can later free and reallocate subtrees.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.net.rib import Rib
from repro.robust.faults import fault_point


class TmpNode:
    """A poptrie internal node before serialization."""

    __slots__ = ("vector", "leafvec", "leaves", "children")

    def __init__(self) -> None:
        self.vector = 0
        self.leafvec = 0
        self.leaves: List[int] = []
        self.children: List[TmpNode] = []

    def shallow_signature(self) -> tuple:
        """The fields compared by the incremental updater to decide whether a
        node can be updated in place (Section 3.5: "when neither of the
        root's vector nor leafvec change...")."""
        return self.vector, self.leafvec

    def count_nodes(self) -> tuple:
        """(internal nodes, leaf slots) in this subtree — for Table 2."""
        inodes, leaves = 1, len(self.leaves)
        for child in self.children:
            ci, cl = child.count_nodes()
            inodes += ci
            leaves += cl
        return inodes, leaves


#: A slot of an expanded chunk: either a leaf FIB index (int) or a pending
#: internal node (the RIB node id to expand further + its inherited FIB
#: index).
Slot = Union[int, tuple]


def expand_chunk(
    rib: Rib, node: Optional[int], inherited: int, k: int
) -> List[Slot]:
    """Expand one k-bit chunk of ``rib`` below node ``node`` into 2^k
    slots."""
    slots: List[Slot] = []
    for _, span, next_hop, subtree in rib.expand(node, inherited, k):
        if subtree is not None:
            slots.append((subtree, next_hop))
        elif span == 1:
            slots.append(next_hop)
        else:
            slots += [next_hop] * span
    return slots


def make_shallow(slots: List[Slot], use_leafvec: bool) -> TmpNode:
    """Build one TmpNode from expanded slots, without recursing into
    children (children are left as ``(rib_node_id, inherited)`` markers in
    ``tmp.children`` order-preserving positions for the caller to expand)."""
    tmp = TmpNode()
    pending: List[tuple] = []
    previous: Optional[int] = None
    for v, slot in enumerate(slots):
        if isinstance(slot, tuple):
            tmp.vector |= 1 << v
            pending.append(slot)
            continue
        if use_leafvec:
            # Section 3.3: emit a leaf only when the value changes; slots
            # shadowed by internal nodes are "irrelevant" and the run of
            # identical leaves continues across them (hole punching).
            if previous is None or slot != previous:
                tmp.leafvec |= 1 << v
                tmp.leaves.append(slot)
                previous = slot
        else:
            tmp.leaves.append(slot)
    tmp.children = pending  # type: ignore[assignment]
    return tmp


def expand_node(
    rib: Rib, node: Optional[int], inherited: int, k: int, use_leafvec: bool
) -> TmpNode:
    """Recursively expand ``rib``'s subtree at node ``node`` into a
    TmpNode tree.

    ``inherited`` is the FIB index of the longest prefix already matched on
    the way down to ``node`` (``node``'s own route is folded in by the
    expansion).
    """
    slots = expand_chunk(rib, node, inherited, k)
    return expand_children(rib, make_shallow(slots, use_leafvec), k, use_leafvec)


def expand_children(rib: Rib, tmp: TmpNode, k: int, use_leafvec: bool) -> TmpNode:
    """Expand the children a :func:`make_shallow` node left as markers;
    returns ``tmp``, now the root of a whole TmpNode tree."""
    tmp.children = [
        expand_node(rib, child, child_inherited, k, use_leafvec)
        for child, child_inherited in tmp.children  # type: ignore[misc]
    ]
    return tmp


class Serializer:
    """Writes TmpNode trees into a Poptrie's node and leaf arrays.

    The target object must expose ``alloc_nodes(n)``, ``alloc_leaves(n)``,
    ``write_node(index, vector, leafvec, base0, base1)`` and
    ``write_leaf(index, value)`` — :class:`repro.core.poptrie.Poptrie` does.
    Children of each node form one contiguous block starting at ``base1``;
    compressed leaves form one contiguous block starting at ``base0``.

    Emission is *post-order*: a node is written only after every node and
    leaf below it is complete.  That makes the final root write a safe
    publication point — Section 3.5's requirement that a concurrent reader
    never follows a pointer into a half-built block — and lets the
    incremental updater stage the root's fields (:meth:`serialize_fields`)
    and commit them with one atomic write.
    """

    def __init__(self, target) -> None:
        self.target = target
        self.nodes_written = 0
        self.leaves_written = 0

    def serialize(self, tmp: TmpNode) -> int:
        """Place ``tmp``'s subtree; returns the root's node index."""
        root_index = self.target.alloc_nodes(1)
        fields = self.serialize_fields(tmp)
        self.target.write_node(root_index, *fields)
        return root_index

    def serialize_fields(self, tmp: TmpNode) -> Tuple[int, int, int, int]:
        """Emit ``tmp``'s descendants and leaves; return the root's
        ``(vector, leafvec, base0, base1)`` *without writing the root*.

        The caller owns the final publishing write — the transactional
        update layer defers it into its commit phase.  The root is counted
        in ``nodes_written`` (it will certainly be written).
        """
        return self._emit(tmp)

    def _emit(self, node: TmpNode) -> Tuple[int, int, int, int]:
        fault_point("build")
        base1 = 0
        if node.children:
            base1 = self.target.alloc_nodes(len(node.children))
            for i, child in enumerate(node.children):
                fields = self._emit(child)
                self.target.write_node(base1 + i, *fields)
        base0 = 0
        if node.leaves:
            base0 = self.target.alloc_leaves(len(node.leaves))
            for i, value in enumerate(node.leaves):
                self.target.write_leaf(base0 + i, value)
            self.leaves_written += len(node.leaves)
        self.nodes_written += 1
        return node.vector, node.leafvec, base0, base1
