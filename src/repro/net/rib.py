"""The RIB: a binary radix tree over prefixes, stored as node columns.

The paper keeps the routes "in a separate routing table (RIB: Routing
Information Base) such as radix or Patricia trie" (Section 3) and compiles
Poptrie — and, in our reproduction, every baseline structure — from it.
This module implements that substrate as a plain binary radix tree (one bit
per level).

The tree lives in three parallel ``array("I")`` columns, ``left``,
``right`` and ``route``, indexed by node id: no Python object per node.
Node 0 (:data:`ROOT`) is the root.  A child id of 0 means "no child",
since the root is nobody's child, and a route of ``NO_ROUTE`` (also 0)
means the node carries none, so a zero-filled row is an empty node.
Nodes that :meth:`Rib.delete` prunes go on a free list threaded through
``left``, which :meth:`Rib.insert` reuses.  A node handle is an int id;
the walks return ``None`` where a path leaves the tree.

Besides insert, delete and longest-prefix-match lookup (the "Radix"
baseline row of Tables 2 and 3), the :class:`Rib` provides:

- :meth:`Rib.lookup_with_depth`, which reports the *binary radix depth*:
  the number of bits that had to be examined to decide the longest match.
  Section 4.1 and Figures 7 and 11 of the paper are built on this quantity,
- :meth:`Rib.expand`, the one controlled-prefix-expansion walk every
  stride-based builder compiles from (Poptrie and its direct pointing,
  the incremental updater, DIR-24-8, SAIL, DXR, Lulea, Multibit), and
  :meth:`Rib.descend`, the matching walk down one key's path,
- the bulk pair :meth:`Rib.load_sorted` / :meth:`Rib.route_columns` behind
  the ``RPIMG001`` table images, and :meth:`Rib.max_fib_index`, kept in
  O(1) by a per-FIB-index route count.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.net.prefix import Prefix
from repro.net.values import NO_ROUTE

#: Bytes we account per radix node: two child pointers, a parent/route word
#: and the route index — comparable to the C implementation the paper
#: benchmarks (its radix occupies ~30 MiB at 520 k routes; ours matches with
#: 24-byte nodes plus per-route overhead).  The columns themselves hold
#: 12 bytes per node.
NODE_BYTES = 24

#: The root's node id.
ROOT = 0

#: The largest FIB index a ``route`` column entry holds: the widest
#: supported leaf encoding (32-bit).  Index 0 is the NO_ROUTE sentinel.
MAX_FIB_INDEX = (1 << 32) - 1


class Rib:
    """A binary radix tree mapping prefixes to FIB indices.

    Routes arrive one at a time through :meth:`insert` / :meth:`delete`,
    or all at once through :meth:`load_sorted`, the bulk builder behind
    :func:`repro.data.tableio.rib_from_image`: it takes routes already in
    preorder and creates each node once from a single path stack.
    :meth:`route_columns` is the matching bulk reader (numpy columns, no
    :class:`Prefix` objects), and :meth:`max_fib_index` answers the
    FIB-capacity question every builder asks without walking the tree.

    >>> rib = Rib(width=32)
    >>> rib.insert(Prefix.parse("10.0.0.0/8"), 1)
    0
    >>> rib.insert(Prefix.parse("10.1.0.0/16"), 2)
    0
    >>> rib.lookup(int(__import__("ipaddress").ip_address("10.1.2.3")))
    2
    >>> rib.lookup(int(__import__("ipaddress").ip_address("10.2.0.1")))
    1
    >>> rib.node_count, len(rib.left)
    (17, 17)
    """

    def __init__(self, width: int = 32, values=None) -> None:
        self.width = width
        #: The node columns (see the module docstring); row 0 is the root.
        self.left = array("I", [0])
        self.right = array("I", [0])
        self.route = array("I", [NO_ROUTE])
        #: Head of the free list of pruned node ids (0: empty), linked
        #: through ``left``.
        self._free = 0
        self._node_count = 1
        self._route_count = 0
        #: Routes per FIB index, and the largest index among them.
        self._fib_counts: Dict[int, int] = {}
        self._max_fib = NO_ROUTE
        #: Optional :class:`~repro.net.values.ValueTable` giving meaning
        #: to the route ids stored in the nodes.  ``None`` means the ids
        #: are opaque (the historical FIB-index-only mode); builders and
        #: the registry propagate a table when one is attached.
        self.values = values

    def __len__(self) -> int:
        """Number of routes currently installed."""
        return self._route_count

    @property
    def node_count(self) -> int:
        """Number of live nodes (free-listed ids excluded)."""
        return self._node_count

    def memory_bytes(self) -> int:
        """Approximate memory footprint, for the Table 2/3 "Radix" row."""
        return self._node_count * NODE_BYTES

    # -- mutation ----------------------------------------------------------

    def insert(self, prefix: Prefix, fib_index: int) -> int:
        """Insert or replace a route; returns the previous FIB index."""
        self._check(prefix)
        if fib_index == NO_ROUTE:
            raise ValueError("use delete() to remove a route")
        if not 0 < fib_index <= MAX_FIB_INDEX:
            raise ValueError(f"FIB index {fib_index} outside 1..{MAX_FIB_INDEX}")
        node = self._descend_create(prefix)
        previous = self.route[node]
        self.route[node] = fib_index
        self._fib_counts[fib_index] = self._fib_counts.get(fib_index, 0) + 1
        if fib_index > self._max_fib:
            self._max_fib = fib_index
        if previous == NO_ROUTE:
            self._route_count += 1
        else:
            self._uncount(previous)
        return previous

    def load_sorted(self, values, lengths, fib_indices) -> None:
        """Bulk-build this (empty) RIB from routes in preorder.

        ``values``, ``lengths`` and ``fib_indices`` are parallel
        iterables of ints: left-aligned prefix values with no host bits,
        lengths ≤ ``width`` and FIB indices in ``1..MAX_FIB_INDEX``,
        sorted by ``(value, length)`` — the order :meth:`routes` yields —
        with no duplicates.  ``path`` holds the previous route's node ids
        by depth.  Each route shares a depth with the previous one; in
        preorder every node below that depth is new, so the route's new
        nodes are appended to the columns as one zero-filled block and
        linked from the path, with no per-node Python object.  A route
        that would land on a node already built (a duplicate, or a route
        after one of its descendants) raises :class:`ValueError`, leaving
        the routes before it loaded; rows in preorder never do.
        """
        if self._route_count or self._node_count != 1:
            raise ValueError("load_sorted needs an empty RIB")
        width = self.width
        left, right, route = self.left, self.right, self.route
        # Drop the ids an emptied RIB may still hold on its free list.
        del left[1:], right[1:], route[1:]
        self._free = 0
        blocks = [array("I", bytes(4 * n)) for n in range(width + 1)]
        path = [ROOT] * (width + 1)
        previous = previous_length = 0
        count = 0
        try:
            for value, length, fib_index in zip(values, lengths, fib_indices):
                depth = min(
                    width - (value ^ previous).bit_length(), length, previous_length
                )
                node = path[depth]
                if depth == length:
                    clash = count > 0  # only a leading /0 lands on the root
                else:
                    bit = (value >> (width - 1 - depth)) & 1
                    clash = (right if bit else left)[node] != 0
                if clash:
                    raise ValueError(
                        f"route {count} is a duplicate or out of preorder"
                    )
                child = len(left)
                block = blocks[length - depth]
                left += block
                right += block
                route += block
                for shift in range(width - 1 - depth, width - 1 - length, -1):
                    (right if (value >> shift) & 1 else left)[node] = child
                    depth += 1
                    path[depth] = node = child
                    child += 1
                route[node] = fib_index
                count += 1
                previous, previous_length = value, length
        finally:
            self._node_count = len(left)
            self._route_count = count
            counts = Counter(route)
            counts.pop(NO_ROUTE, None)
            self._fib_counts = dict(counts)
            self._max_fib = max(counts, default=NO_ROUTE)

    def delete(self, prefix: Prefix) -> int:
        """Remove a route; returns the FIB index it had.

        Raises :class:`KeyError` if the prefix is not present.  Interior
        nodes left without routes or children are pruned onto the free
        list, so the node count tracks the live tree.
        """
        self._check(prefix)
        left, right, route = self.left, self.right, self.route
        path: List[Tuple[int, array]] = []
        node = ROOT
        value = prefix.value
        top = self.width - 1
        for shift in range(top, top - prefix.length, -1):
            column = right if (value >> shift) & 1 else left
            child = column[node]
            if not child:
                raise KeyError(prefix.text)
            path.append((node, column))
            node = child
        previous = route[node]
        if previous == NO_ROUTE:
            raise KeyError(prefix.text)
        route[node] = NO_ROUTE
        self._route_count -= 1
        self._uncount(previous)
        # Prune childless, routeless nodes bottom-up.
        while path and not (left[node] or right[node] or route[node]):
            parent, column = path.pop()
            column[parent] = 0
            left[node] = self._free
            self._free = node
            self._node_count -= 1
            node = parent
        return previous

    def get(self, prefix: Prefix) -> int:
        """Exact-match: FIB index of ``prefix`` or ``NO_ROUTE``."""
        node = self.node_at(prefix)
        return self.route[node] if node is not None else NO_ROUTE

    # -- lookup ------------------------------------------------------------

    def lookup(self, address: int) -> int:
        """Longest-prefix-match ``address`` to a FIB index."""
        left, right, route = self.left, self.right, self.route
        node = ROOT
        best = NO_ROUTE
        shift = self.width - 1
        while True:
            if route[node] != NO_ROUTE:
                best = route[node]
            if shift < 0:
                return best
            node = (right if (address >> shift) & 1 else left)[node]
            if not node:
                return best
            shift -= 1

    def lookup_with_depth(self, address: int) -> Tuple[int, int, int]:
        """LPM plus the paper's depth metrics.

        Returns ``(fib_index, matched_prefix_length, binary_radix_depth)``.
        The binary radix depth is the number of bits examined before the
        search bottomed out — i.e. the depth of the deepest node visited —
        which the paper shows (Figure 7) is often much larger than the
        matched prefix length because longer prefixes punch holes in
        shorter ones.
        """
        left, right, route = self.left, self.right, self.route
        node = ROOT
        best = NO_ROUTE
        best_len = 0
        depth = 0
        shift = self.width - 1
        while True:
            if route[node] != NO_ROUTE:
                best = route[node]
                best_len = depth
            if shift < 0:
                break
            nxt = (right if (address >> shift) & 1 else left)[node]
            if not nxt:
                break
            node = nxt
            depth += 1
            shift -= 1
        return best, best_len, depth

    # -- iteration / walking -----------------------------------------------

    def routes(self) -> Iterator[Tuple[Prefix, int]]:
        """Yield ``(prefix, fib_index)`` in lexicographic bit order."""
        left, right, route = self.left, self.right, self.route
        width = self.width
        stack: List[Tuple[int, int, int]] = [(ROOT, 0, 0)]
        while stack:
            node, value, length = stack.pop()
            if route[node] != NO_ROUTE:
                yield Prefix(value, length, width), route[node]
            # Push right first so left pops (and yields) first.
            if right[node]:
                stack.append(
                    (right[node], value | (1 << (width - length - 1)), length + 1)
                )
            if left[node]:
                stack.append((left[node], value, length + 1))

    def route_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The routes as numpy columns ``(value_hi, value_lo, lengths,
        fib_indices)`` (uint64, uint64, uint8, uint32).

        Same order as :meth:`routes` (preorder, which is ``(value,
        length)`` order), with each prefix value split into 64-bit
        halves: the bulk reader image writers use.  The tree is walked
        one depth at a time over the columns, with no Python object per
        node or route.  :meth:`routes` stays a lazy walk of its own,
        because some callers stop early.
        """
        left = np.frombuffer(self.left, np.uint32)
        right = np.frombuffer(self.right, np.uint32)
        route = np.frombuffer(self.route, np.uint32)
        width = self.width
        # The frontier: node ids at one depth, and their values' halves.
        nodes = np.zeros(1, np.uint32)
        hi = np.zeros(1, np.uint64)
        lo = np.zeros(1, np.uint64)
        found = ([], [], [], [])  # per depth: the routes' hi, lo, length, fib
        for depth in range(width + 1):
            fib = route[nodes]
            here = fib != NO_ROUTE
            for parts, part in zip(found, (
                hi[here], lo[here], np.full(here.sum(), depth, np.uint8), fib[here]
            )):
                parts.append(part)
            if depth == width:
                break
            lefts, rights = left[nodes], right[nodes]
            on_left, on_right = lefts != 0, rights != 0
            # The right child sets the bit at this depth.
            shift = width - 1 - depth
            rhi, rlo = hi[on_right], lo[on_right]
            if shift >= 64:
                rhi |= np.uint64(1 << (shift - 64))
            else:
                rlo |= np.uint64(1 << shift)
            nodes = np.concatenate((lefts[on_left], rights[on_right]))
            if not len(nodes):
                break
            hi = np.concatenate((hi[on_left], rhi))
            lo = np.concatenate((lo[on_left], rlo))
        # Join and reorder one column at a time, releasing each input as
        # it goes: the transient peak stays about one copy of the routes.
        del left, right, route, nodes, hi, lo
        columns = []
        for parts in found:
            columns.append(np.concatenate(parts))
            parts.clear()
        order = np.lexsort(columns[2::-1])  # by value_hi, value_lo, length
        for i, column in enumerate(columns):
            columns[i] = column[order]
        return tuple(columns)

    def max_fib_index(self) -> int:
        """The largest FIB index of any route (``NO_ROUTE``, 0, when empty)."""
        return self._max_fib

    def node_at(self, prefix: Prefix) -> Optional[int]:
        """The id of the radix node exactly at ``prefix``, or ``None``."""
        self._check(prefix)
        left, right = self.left, self.right
        node = ROOT
        value = prefix.value
        top = self.width - 1
        for shift in range(top, top - prefix.length, -1):
            node = (right if (value >> shift) & 1 else left)[node]
            if not node:
                return None
        return node

    def best_route_on_path(self, prefix: Prefix) -> int:
        """FIB index of the longest route covering ``prefix``'s network address
        with length ≤ ``prefix.length`` (the inherited next hop at that point
        in the tree): the next hop of a BSearch-Lengths marker.
        """
        self._check(prefix)
        bits = prefix.length
        node, best = self.descend(
            ROOT, NO_ROUTE, prefix.value >> (self.width - bits), bits
        )
        if node is not None and self.route[node] != NO_ROUTE:
            best = self.route[node]
        return best

    def descend(
        self, node: Optional[int], inherited: int, value: int, bits: int
    ) -> Tuple[Optional[int], int]:
        """Walk ``bits`` bits of ``value`` (MSB first) down from ``node``.

        Returns the node reached (``None`` once the path leaves the tree)
        and the best route strictly above it: ``inherited``, overridden by
        each route passed on the way down.
        """
        if node is None:
            return None, inherited
        left, right, route = self.left, self.right, self.route
        for shift in range(bits - 1, -1, -1):
            inherited = route[node] or inherited  # NO_ROUTE is 0
            node = (right if (value >> shift) & 1 else left)[node]
            if not node:
                return None, inherited
        return node, inherited

    def expand(
        self, node: Optional[int], inherited: int, stride: int
    ) -> Iterator[Tuple[int, int, int, Optional[int]]]:
        """Controlled prefix expansion of ``stride`` bits below ``node``.

        Yields ``(base, span, next_hop, subtree)`` runs in slot order;
        together they cover ``range(2**stride)`` exactly once.
        ``inherited`` is the best route strictly above ``node``, and each
        node's own route is folded into ``next_hop`` on the way down.  A
        run without a ``subtree`` fills its ``span`` slots with
        ``next_hop``: a missing node (``None``), or a node without
        children, is one run at any depth.  ``subtree`` (a node id) is
        set only at depth ``stride``, with ``span == 1``, on a node that
        has children; the caller expands it further, inheriting
        ``next_hop``.
        """
        if node is None:
            yield 0, 1 << stride, inherited, None
            return
        left, right, route = self.left, self.right, self.route
        # Deferred right children (id 0: missing) with their slot ranges.
        stack: List[Tuple[int, int, int, int]] = []
        pop, push = stack.pop, stack.append
        bits, base = stride, 0
        while True:
            # ``node`` is live: follow its left child, deferring the right.
            inherited = route[node] or inherited  # NO_ROUTE is 0
            lchild, rchild = left[node], right[node]
            if not (lchild or rchild):
                yield base, 1 << bits, inherited, None
            elif not bits:
                yield base, 1, inherited, node
            else:
                bits -= 1
                push((rchild, bits, base | (1 << bits), inherited))
                if lchild:
                    node = lchild
                    continue
                yield base, 1 << bits, inherited, None
            # Resume at the deepest deferred child; a missing one is one run.
            while stack:
                node, bits, base, inherited = pop()
                if node:
                    break
                yield base, 1 << bits, inherited, None
            else:
                return

    # -- internals -----------------------------------------------------------

    def _check(self, prefix: Prefix) -> None:
        if prefix.width != self.width:
            raise ValueError(
                f"prefix width {prefix.width} does not match RIB width {self.width}"
            )

    def _uncount(self, fib_index: int) -> None:
        """One route with ``fib_index`` is gone: update the counts."""
        left = self._fib_counts[fib_index] - 1
        if left:
            self._fib_counts[fib_index] = left
            return
        del self._fib_counts[fib_index]
        if fib_index == self._max_fib:
            self._max_fib = max(self._fib_counts, default=NO_ROUTE)

    def _descend_create(self, prefix: Prefix) -> int:
        left, right = self.left, self.right
        node = ROOT
        value = prefix.value
        top = self.width - 1
        for shift in range(top, top - prefix.length, -1):
            column = right if (value >> shift) & 1 else left
            child = column[node]
            if not child:
                child = self._new_node()
                column[node] = child
            node = child
        return node

    def _new_node(self) -> int:
        """A zero-filled row: the free list's head, or a new one."""
        node = self._free
        if node:
            self._free = self.left[node]
            self.left[node] = 0
        else:
            node = len(self.left)
            self.left.append(0)
            self.right.append(0)
            self.route.append(NO_ROUTE)
        self._node_count += 1
        return node


def rib_from_routes(
    routes, width: int = 32, values=None
) -> Rib:
    """Build a :class:`Rib` from an iterable of ``(prefix, fib_index)``."""
    rib = Rib(width=width, values=values)
    for prefix, fib_index in routes:
        rib.insert(prefix, fib_index)
    return rib
