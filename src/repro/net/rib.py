"""The RIB: a binary radix tree over prefixes.

The paper keeps the routes "in a separate routing table (RIB: Routing
Information Base) such as radix or Patricia trie" (Section 3) and compiles
Poptrie — and, in our reproduction, every baseline structure — from it.
This module implements that substrate as a plain binary radix tree (one bit
per level).  It also provides:

- longest-prefix-match lookup (the "Radix" baseline row of Tables 2 and 3),
- :meth:`Rib.lookup_with_depth`, which reports the *binary radix depth*:
  the number of bits that had to be examined to decide the longest match.
  Section 4.1 and Figures 7 and 11 of the paper are built on this quantity,
- :func:`expand`, the one controlled-prefix-expansion walk every
  stride-based builder compiles from (Poptrie and its direct pointing,
  the incremental updater, DIR-24-8, SAIL, DXR, Lulea, Multibit), and
  :func:`descend`, the matching walk down one key's path.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.net.prefix import Prefix
from repro.net.values import NO_ROUTE

#: Bytes we account per radix node: two child pointers, a parent/route word
#: and the route index — comparable to the C implementation the paper
#: benchmarks (its radix occupies ~30 MiB at 520 k routes; ours matches with
#: 24-byte nodes plus per-route overhead).
NODE_BYTES = 24


class RibNode:
    """One node of the binary radix tree.

    ``route`` is a FIB index (``NO_ROUTE`` when the node carries no route).
    """

    __slots__ = ("left", "right", "route")

    def __init__(self) -> None:
        self.left: Optional[RibNode] = None
        self.right: Optional[RibNode] = None
        self.route: int = NO_ROUTE

    def child(self, bit: int) -> Optional["RibNode"]:
        return self.right if bit else self.left

    def set_child(self, bit: int, node: Optional["RibNode"]) -> None:
        if bit:
            self.right = node
        else:
            self.left = node

    def is_leaf(self) -> bool:
        return self.left is None and self.right is None


class Rib:
    """A binary radix tree mapping prefixes to FIB indices.

    Routes arrive one at a time through :meth:`insert` / :meth:`delete`,
    or all at once through :meth:`load_sorted`, the bulk builder behind
    :func:`repro.data.tableio.rib_from_image`: it takes routes already in
    preorder and creates each node once from a single path stack.
    :meth:`route_columns` is the matching bulk reader (plain int lists,
    no :class:`Prefix` objects), and :meth:`max_fib_index` answers the
    FIB-capacity question every builder asks without building routes.

    >>> rib = Rib(width=32)
    >>> rib.insert(Prefix.parse("10.0.0.0/8"), 1)
    0
    >>> rib.insert(Prefix.parse("10.1.0.0/16"), 2)
    0
    >>> rib.lookup(int(__import__("ipaddress").ip_address("10.1.2.3")))
    2
    >>> rib.lookup(int(__import__("ipaddress").ip_address("10.2.0.1")))
    1
    """

    def __init__(self, width: int = 32, values=None) -> None:
        self.width = width
        self.root = RibNode()
        self._route_count = 0
        self._node_count = 1
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
        node = self._descend_create(prefix)
        previous = node.route
        node.route = fib_index
        if previous == NO_ROUTE:
            self._route_count += 1
        return previous

    def load_sorted(self, values, lengths, fib_indices) -> None:
        """Bulk-build this (empty) RIB from routes in preorder.

        ``values``, ``lengths`` and ``fib_indices`` are parallel
        sequences of ints: left-aligned prefix values with no host bits,
        lengths ≤ ``width`` and non-zero FIB indices, sorted by
        ``(value, length)`` — the order :meth:`routes` yields — with no
        duplicates.  One stack holds the previous route's path.  Each
        route pops it to the depth it shares with the previous route;
        in preorder every node below that depth is new, so each node is
        created exactly once, with no per-bit method calls.  A route that
        would land on a node already built (a duplicate, or a route after
        one of its descendants) raises :class:`ValueError`, leaving the
        routes before it loaded; rows in preorder never do.
        """
        if self._route_count or self._node_count != 1:
            raise ValueError("load_sorted needs an empty RIB")
        width = self.width
        path = [self.root]
        previous = 0
        created = 0
        count = 0
        try:
            for value, length, fib_index in zip(values, lengths, fib_indices):
                depth = min(
                    width - (value ^ previous).bit_length(), length, len(path) - 1
                )
                del path[depth + 1:]
                node = path[depth]
                if depth == length:
                    clash = count > 0  # only a leading /0 lands on the root
                else:
                    bit = (value >> (width - 1 - depth)) & 1
                    clash = (node.right if bit else node.left) is not None
                if clash:
                    raise ValueError(
                        f"route {count} is a duplicate or out of preorder"
                    )
                for shift in range(width - 1 - depth, width - 1 - length, -1):
                    child = RibNode()
                    if (value >> shift) & 1:
                        node.right = child
                    else:
                        node.left = child
                    path.append(child)
                    node = child
                node.route = fib_index
                created += length - depth
                count += 1
                previous = value
        finally:
            self._node_count += created
            self._route_count = count

    def delete(self, prefix: Prefix) -> int:
        """Remove a route; returns the FIB index it had.

        Raises :class:`KeyError` if the prefix is not present.  Interior
        nodes left without routes or children are pruned so the node count
        tracks the live tree.
        """
        self._check(prefix)
        path: List[Tuple[RibNode, int]] = []
        node = self.root
        for i in range(prefix.length):
            bit = prefix.bit(i)
            nxt = node.child(bit)
            if nxt is None:
                raise KeyError(prefix.text)
            path.append((node, bit))
            node = nxt
        if node.route == NO_ROUTE:
            raise KeyError(prefix.text)
        previous = node.route
        node.route = NO_ROUTE
        self._route_count -= 1
        # Prune childless, routeless nodes bottom-up.
        while path and node.is_leaf() and node.route == NO_ROUTE:
            parent, bit = path.pop()
            parent.set_child(bit, None)
            self._node_count -= 1
            node = parent
        return previous

    def get(self, prefix: Prefix) -> int:
        """Exact-match: FIB index of ``prefix`` or ``NO_ROUTE``."""
        node = self.node_at(prefix)
        return node.route if node is not None else NO_ROUTE

    # -- lookup ------------------------------------------------------------

    def lookup(self, address: int) -> int:
        """Longest-prefix-match ``address`` to a FIB index."""
        node: Optional[RibNode] = self.root
        best = NO_ROUTE
        shift = self.width - 1
        while node is not None:
            if node.route != NO_ROUTE:
                best = node.route
            if shift < 0:
                break
            node = node.child((address >> shift) & 1)
            shift -= 1
        return best

    def lookup_with_depth(self, address: int) -> Tuple[int, int, int]:
        """LPM plus the paper's depth metrics.

        Returns ``(fib_index, matched_prefix_length, binary_radix_depth)``.
        The binary radix depth is the number of bits examined before the
        search bottomed out — i.e. the depth of the deepest node visited —
        which the paper shows (Figure 7) is often much larger than the
        matched prefix length because longer prefixes punch holes in
        shorter ones.
        """
        node: Optional[RibNode] = self.root
        best = NO_ROUTE
        best_len = 0
        depth = 0
        shift = self.width - 1
        while True:
            if node.route != NO_ROUTE:
                best = node.route
                best_len = depth
            if shift < 0:
                break
            nxt = node.child((address >> shift) & 1)
            if nxt is None:
                break
            node = nxt
            depth += 1
            shift -= 1
        return best, best_len, depth

    # -- iteration / walking -----------------------------------------------

    def routes(self) -> Iterator[Tuple[Prefix, int]]:
        """Yield ``(prefix, fib_index)`` in lexicographic bit order."""
        stack: List[Tuple[RibNode, int, int]] = [(self.root, 0, 0)]
        while stack:
            node, value, length = stack.pop()
            if node.route != NO_ROUTE:
                yield Prefix(value, length, self.width), node.route
            # Push right first so left pops (and yields) first.
            if node.right is not None:
                stack.append(
                    (node.right, value | (1 << (self.width - length - 1)), length + 1)
                )
            if node.left is not None:
                stack.append((node.left, value, length + 1))

    def route_columns(self) -> Tuple[List[int], List[int], List[int]]:
        """The routes as parallel ``(values, lengths, fib_indices)`` lists.

        Same order as :meth:`routes`, but with no :class:`Prefix` per
        route: the bulk reader image writers use.  :meth:`routes` stays a
        lazy walk of its own, because some callers stop early.
        """
        values: List[int] = []
        lengths: List[int] = []
        fib_indices: List[int] = []
        top = self.width - 1
        stack: List[Tuple[RibNode, int, int]] = [(self.root, 0, 0)]
        while stack:
            node, value, length = stack.pop()
            if node.route != NO_ROUTE:
                values.append(value)
                lengths.append(length)
                fib_indices.append(node.route)
            if node.right is not None:
                stack.append((node.right, value | (1 << (top - length)), length + 1))
            if node.left is not None:
                stack.append((node.left, value, length + 1))
        return values, lengths, fib_indices

    def max_fib_index(self) -> int:
        """The largest FIB index of any route (``NO_ROUTE``, 0, when empty)."""
        best = NO_ROUTE
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.route > best:
                best = node.route
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return best

    def node_at(self, prefix: Prefix) -> Optional[RibNode]:
        """The radix node exactly at ``prefix``, or ``None``."""
        self._check(prefix)
        bits = prefix.length
        node, _ = descend(
            self.root, NO_ROUTE, prefix.value >> (self.width - bits), bits
        )
        return node

    def best_route_on_path(self, prefix: Prefix) -> int:
        """FIB index of the longest route covering ``prefix``'s network address
        with length ≤ ``prefix.length`` (the inherited next hop at that point
        in the tree): the next hop of a BSearch-Lengths marker.
        """
        self._check(prefix)
        bits = prefix.length
        node, best = descend(
            self.root, NO_ROUTE, prefix.value >> (self.width - bits), bits
        )
        if node is not None and node.route != NO_ROUTE:
            best = node.route
        return best

    # -- internals -----------------------------------------------------------

    def _check(self, prefix: Prefix) -> None:
        if prefix.width != self.width:
            raise ValueError(
                f"prefix width {prefix.width} does not match RIB width {self.width}"
            )

    def _descend_create(self, prefix: Prefix) -> RibNode:
        node = self.root
        for i in range(prefix.length):
            bit = prefix.bit(i)
            nxt = node.child(bit)
            if nxt is None:
                nxt = RibNode()
                node.set_child(bit, nxt)
                self._node_count += 1
            node = nxt
        return node


def descend(
    node: Optional[RibNode], inherited: int, value: int, bits: int
) -> Tuple[Optional[RibNode], int]:
    """Walk ``bits`` bits of ``value`` (MSB first) down from ``node``.

    Returns the node reached (``None`` once the path leaves the tree)
    and the best route strictly above it: ``inherited``, overridden by
    each route passed on the way down.
    """
    for shift in range(bits - 1, -1, -1):
        if node is None:
            break
        if node.route != NO_ROUTE:
            inherited = node.route
        node = node.right if (value >> shift) & 1 else node.left
    return node, inherited


def expand(
    node: Optional[RibNode], inherited: int, stride: int
) -> Iterator[Tuple[int, int, int, Optional[RibNode]]]:
    """Controlled prefix expansion of ``stride`` bits below ``node``.

    Yields ``(base, span, next_hop, subtree)`` runs in slot order; together
    they cover ``range(2**stride)`` exactly once.  ``inherited`` is the
    best route strictly above ``node``, and each node's own route is
    folded into ``next_hop`` on the way down.  A run without a
    ``subtree`` fills its ``span`` slots with ``next_hop``: a missing
    node, or a node without children, is one run at any depth.
    ``subtree`` is set only at depth ``stride``, with ``span == 1``, on a
    node that has children; the caller expands it further, inheriting
    ``next_hop``.
    """
    stack = [(node, stride, 0, inherited)]
    pop, push = stack.pop, stack.append
    while stack:
        node, bits, base, inherited = pop()
        # Follow left children in the loop, deferring each right one.
        while True:
            if node is None:
                yield base, 1 << bits, inherited, None
                break
            if node.route != NO_ROUTE:
                inherited = node.route
            left, right = node.left, node.right
            if left is None and right is None:
                yield base, 1 << bits, inherited, None
                break
            if not bits:
                yield base, 1, inherited, node
                break
            bits -= 1
            push((right, bits, base | (1 << bits), inherited))
            node = left


def rib_from_routes(
    routes, width: int = 32, values=None
) -> Rib:
    """Build a :class:`Rib` from an iterable of ``(prefix, fib_index)``."""
    rib = Rib(width=width, values=values)
    for prefix, fib_index in routes:
        rib.insert(prefix, fib_index)
    return rib
