"""Patricia trie (Morrison 1968; Sklower's BSD variant) — path-compressed
longest-prefix match.

The paper names "radix or Patricia trie" as the RIB structures Poptrie
compiles from (Section 3) and cites both among the fundamental LPM
structures that need "some tens of memory accesses" per lookup
(Section 2).  Unlike the plain binary radix tree, Patricia skips runs of
single-child nodes: every internal node tests one *bit index* and has
exactly two children, so the node count is bounded by twice the number
of routes regardless of prefix length — the property that made it the
BSD routing table.

Lookup walks bit tests to a leaf, then verifies against the candidate
prefix and backtracks along the recorded path of shorter matches —
Sklower's algorithm, simplified by keeping each node's list of covering
routes sorted by length (mask list).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.lookup.base import LookupStructure, NoOptions
from repro.lookup.registry import register
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE

#: Node accounting: bit index, two child pointers, route list head.
NODE_BYTES = 28
_NODE_INSTRUCTIONS = 3


class _Node:
    __slots__ = ("bit", "left", "right", "routes")

    def __init__(self, bit: int) -> None:
        self.bit = bit
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        #: Routes whose prefix equals this node's key position, sorted by
        #: descending length (most specific first).
        self.routes: List[Tuple[Prefix, int]] = []


@register("Patricia")
class PatriciaTrie(LookupStructure):
    """Path-compressed binary trie with backtracking LPM."""

    name = "Patricia"

    def __init__(self, width: int = 32) -> None:
        self.width = width
        self.root: Optional[_Node] = None
        self._route_count = 0
        self._node_count = 0
        self.memmap = MemoryMap()
        self._region = self.memmap.add_region("patricia.nodes", NODE_BYTES, 1)
        self._numbering = {}

    @classmethod
    def from_rib(cls, rib: Rib, config=None, **options) -> "PatriciaTrie":
        NoOptions.resolve(config, options)
        trie = cls(width=rib.width)
        for prefix, fib_index in rib.routes():
            trie.insert(prefix, fib_index)
        return trie

    def __len__(self) -> int:
        return self._route_count

    @property
    def node_count(self) -> int:
        return self._node_count

    # -- mutation ------------------------------------------------------------

    def insert(self, prefix: Prefix, fib_index: int) -> None:
        """Insert or replace a route."""
        if prefix.width != self.width:
            raise ValueError("prefix width mismatch")
        if self.root is None:
            self.root = self._leaf_node(prefix, fib_index)
            return
        # Find the divergence point between the prefix and the trie path.
        node = self.root
        path: List[_Node] = []
        while True:
            path.append(node)
            if node.bit >= prefix.length:
                break
            nxt = node.right if prefix.bit(node.bit) else node.left
            if nxt is None:
                break
            node = nxt

        # Check whether an existing node already sits at this key/length.
        for existing in path:
            for i, (p, _) in enumerate(existing.routes):
                if p == prefix:
                    existing.routes[i] = (prefix, fib_index)
                    return

        # Find the first bit where `prefix` diverges from the deepest
        # node's representative route (or its key path).
        anchor = self._representative(path[-1]) or prefix
        diverge = self._first_difference(prefix, anchor)

        # Walk again to the attachment point for `diverge`.
        parent: Optional[_Node] = None
        node = self.root
        while node is not None and node.bit < diverge and node.bit < prefix.length:
            parent = node
            node = node.right if prefix.bit(node.bit) else node.left
        new = _Node(min(diverge, prefix.length))
        new.routes.append((prefix, fib_index))
        self._route_count += 1
        self._node_count += 1
        if node is not None and node.bit == new.bit:
            # Same test position: merge the route into the existing node.
            node.routes.append((prefix, fib_index))
            node.routes.sort(key=lambda item: -item[0].length)
            self._node_count -= 1
            return
        # Splice `new` between parent and node.
        if node is not None:
            branch = self._branch_bit(node, new.bit)
            if branch:
                new.right = node
            else:
                new.left = node
        if parent is None:
            self.root = new
        elif prefix.length > parent.bit and prefix.bit(parent.bit):
            parent.right = new
        else:
            parent.left = new

    def _leaf_node(self, prefix: Prefix, fib_index: int) -> _Node:
        node = _Node(prefix.length)
        node.routes.append((prefix, fib_index))
        self._route_count += 1
        self._node_count += 1
        return node

    def _representative(self, node: _Node) -> Optional[Prefix]:
        if node.routes:
            return node.routes[0][0]
        if node.left is not None:
            return self._representative(node.left)
        if node.right is not None:
            return self._representative(node.right)
        return None

    @staticmethod
    def _first_difference(a: Prefix, b: Prefix) -> int:
        limit = min(a.length, b.length)
        for i in range(limit):
            if a.bit(i) != b.bit(i):
                return i
        return limit

    def _branch_bit(self, node: _Node, at: int) -> int:
        rep = self._representative(node)
        if rep is None or rep.length <= at:
            return 0
        return rep.bit(at)

    # -- lookup --------------------------------------------------------------

    def lookup(self, key: int) -> int:
        best = NO_ROUTE
        best_len = -1
        node = self.root
        while node is not None:
            for prefix, fib_index in node.routes:
                if prefix.length > best_len and prefix.contains_address(key):
                    best = fib_index
                    best_len = prefix.length
                    break  # routes sorted most-specific first
            if node.bit >= self.width:
                break
            bit = (key >> (self.width - 1 - node.bit)) & 1
            node = node.right if bit else node.left
        return best

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        best = NO_ROUTE
        best_len = -1
        node = self.root
        numbering = self._numbering
        while node is not None:
            trace.read(
                self._region, numbering.setdefault(id(node), len(numbering))
            )
            trace.work(_NODE_INSTRUCTIONS + len(node.routes))
            trace.mispredict(0.05)
            for prefix, fib_index in node.routes:
                if prefix.length > best_len and prefix.contains_address(key):
                    best = fib_index
                    best_len = prefix.length
                    break
            if node.bit >= self.width:
                break
            bit = (key >> (self.width - 1 - node.bit)) & 1
            node = node.right if bit else node.left
        return best

    def memory_bytes(self) -> int:
        return self._node_count * NODE_BYTES
