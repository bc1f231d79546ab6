"""Route aggregation — the FIB compression applied before compilation.

Section 3 of the paper: "the route aggregation performs merger of a set of
prefixes with the identical next hop that belong to a subtree without any
gap, into the single prefix representing the whole subtree", and notes the
optimisation is applicable to any lookup structure.  Unless stated
otherwise the paper's Poptrie numbers include it (Table 2's bottom block).

Aggregation operates on the route *ids* in the RIB's ``route`` column and
never inspects payloads, so it applies unchanged to any value plane (next-hop
indices, GeoIP country ids, ACL classes — see docs/VALUES.md): what it
exploits is purely the entropy of the value column (Rétvári et al.,
arXiv:1402.1194).

Three algorithms are provided:

- :func:`aggregate_simple` — the paper's aggregation: bottom-up subtree
  merging plus removal of routes made redundant by their covering route.
  Exact (lookup results are unchanged for every address).
- :func:`aggregate_uniform` — the swoiow poptrie's same-value subtree
  pruning, as a route-list transform: a uniform subtree may only
  collapse into a shorter prefix at multiple-of-``span`` depths, i.e.
  exactly when a multibit node's ``2^span`` children are identical
  leaves.  ``span=1`` degenerates to :func:`aggregate_simple`; also
  exact.
- :func:`aggregate_ortc` — the classic Optimal Route Table Construction
  algorithm (Draves et al.) as an ablation extension: produces the minimal
  equivalent table, at higher construction cost.  Note ORTC minimises the
  number of *routes*; because it may relocate where next hops change, a
  default route can appear.  It preserves lookup semantics for every
  address wherever the original table matched; addresses the original
  table did not cover may map to a real next hop instead of NO_ROUTE
  (standard ORTC behaviour — forwarding correctness is unaffected when the
  table has a default route, and the property tests pin this contract).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.net.prefix import Prefix
from repro.net.rib import ROOT, Rib
from repro.net.values import NO_ROUTE

#: Summary sentinel: the subtree maps addresses to ≥ 2 distinct next hops.
_MIXED = -1
#: Summary sentinel: the subtree maps every address to "no route".
_EMPTY = -2
#: The summary of a missing subtree.
_GAP = (_EMPTY, True)


def _summarise(rib: Rib, node: int, summaries: Dict[int, Tuple[int, bool]]):
    """Post-order summary of each subtree as ``(value, has_gap)``, keyed
    by node id; a missing child summarises as ``_GAP``.

    ``value`` is the unique next hop the covered part of the subtree maps
    to, ``_MIXED`` when there are at least two, or ``_EMPTY`` when nothing
    is covered.  ``has_gap`` records whether some addresses are uncovered.
    """
    left = _summarise(rib, rib.left[node], summaries) if rib.left[node] else _GAP
    right = _summarise(rib, rib.right[node], summaries) if rib.right[node] else _GAP
    value, has_gap = _combine(left, right)
    route = rib.route[node]
    if route != NO_ROUTE:
        # The node's own route fills the gaps below it.
        if value == _EMPTY:
            value, has_gap = route, False
        elif has_gap:
            value = route if value == route else _MIXED
            has_gap = False
    summary = (value, has_gap)
    summaries[node] = summary
    return summary


def _combine(left: Tuple[int, bool], right: Tuple[int, bool]) -> Tuple[int, bool]:
    lv, lg = left
    rv, rg = right
    has_gap = lg or rg
    if lv == _EMPTY:
        return rv, has_gap
    if rv == _EMPTY:
        return lv, has_gap
    if lv == _MIXED or rv == _MIXED or lv != rv:
        return _MIXED, has_gap
    return lv, has_gap


def _emit_routes(rib: Rib, span: int) -> List[Tuple[Prefix, int]]:
    """Shared emitter behind the exact aggregations.

    ``span`` gates where a merged subtree may surface as one route: a
    uniform subtree collapses only at depths that are multiples of
    ``span`` (or at a leaf, where "collapsing" just re-emits the route
    where it already is).  Elsewhere the walk descends, which is always
    an exact representation, so every span produces an equivalent table;
    larger spans trade route count for stride alignment.
    """
    summaries: Dict[int, Tuple[int, bool]] = {}
    _summarise(rib, ROOT, summaries)
    routes: List[Tuple[Prefix, int]] = []
    left, right, route = rib.left, rib.right, rib.route

    def emit(node: int, value: int, length: int, inherited: int):
        summary_value, has_gap = summaries[node]
        effective = route[node] if route[node] != NO_ROUTE else inherited
        # Does the whole subtree collapse to one value, given what is
        # inherited from above fills any remaining gaps?
        collapsed: Optional[int] = None
        if summary_value == _EMPTY:
            collapsed = effective
        elif summary_value != _MIXED and not has_gap:
            collapsed = summary_value
        elif summary_value != _MIXED and has_gap and summary_value == effective:
            collapsed = summary_value
        is_leaf = not (left[node] or right[node])
        if collapsed is not None and (length % span == 0 or is_leaf):
            if collapsed != inherited and collapsed != NO_ROUTE:
                routes.append((Prefix(value, length, rib.width), collapsed))
            return
        if route[node] != NO_ROUTE and route[node] != inherited:
            routes.append((Prefix(value, length, rib.width), route[node]))
            inherited = route[node]
        bit = 1 << (rib.width - length - 1)
        if left[node]:
            emit(left[node], value, length + 1, inherited)
        if right[node]:
            emit(right[node], value | bit, length + 1, inherited)

    emit(ROOT, 0, 0, NO_ROUTE)
    return routes


def aggregate_simple(rib: Rib) -> List[Tuple[Prefix, int]]:
    """The paper's route aggregation.  Returns the reduced route list.

    Exactness: for every address, looking up the returned table gives the
    same FIB index as the input table (including NO_ROUTE misses).
    """
    return _emit_routes(rib, span=1)


def aggregate_uniform(rib: Rib, span: int = 8) -> List[Tuple[Prefix, int]]:
    """Same-value subtree pruning at ``span``-bit stride boundaries.

    The swoiow poptrie's aggregation rule (SNIPPETS.md): in a multibit
    trie with ``span``-bit strides, a node all of whose ``2^span``
    children are identical leaves is pruned to a single leaf one level
    up.  As a route-list transform that means a uniform subtree may only
    be replaced by a shorter prefix when that prefix length is a
    multiple of ``span`` — merged prefixes then land exactly on chunk
    boundaries of a ``k=span`` multibit structure, which is where the
    node-count savings come from.  Exact, like
    :func:`aggregate_simple` (to which it degenerates at ``span=1``).
    """
    if span < 1:
        raise ValueError(f"span must be >= 1, got {span}")
    return _emit_routes(rib, span=span)


def aggregated_rib(rib: Rib, span: int = 1) -> Rib:
    """Convenience: a new RIB holding the exact-aggregation output.

    ``span=1`` is :func:`aggregate_simple`; larger spans apply
    :func:`aggregate_uniform`.  The input's attached value table (if
    any) carries over — aggregation renumbers nothing.
    """
    out = Rib(width=rib.width, values=rib.values)
    for prefix, fib_index in _emit_routes(rib, span=span):
        out.insert(prefix, fib_index)
    return out


# -- ORTC (extension / ablation) ---------------------------------------------


def aggregate_ortc(rib: Rib) -> List[Tuple[Prefix, int]]:
    """Optimal Route Table Construction (Draves et al., INFOCOM'99).

    Three passes over a normalised binary trie: (1) leaf-push the inherited
    next hops, (2) compute candidate next-hop sets bottom-up (intersection
    when non-empty, else union), (3) top-down, keep a route only where the
    inherited choice is not in the candidate set.
    """
    width = rib.width

    class _N:
        __slots__ = ("left", "right", "route", "candidates")

        def __init__(self) -> None:
            self.left: Optional[_N] = None
            self.right: Optional[_N] = None
            self.route = NO_ROUTE
            self.candidates: FrozenSet[int] = frozenset()

    # Copy the RIB into a mutable trie, then normalise so every node has
    # zero or two children (ORTC's passes assume a full binary trie).
    def copy(node: int) -> _N:
        out = _N()
        out.route = rib.route[node]
        if rib.left[node]:
            out.left = copy(rib.left[node])
        if rib.right[node]:
            out.right = copy(rib.right[node])
        return out

    root = copy(ROOT)
    if root.route == NO_ROUTE:
        root.route = NO_ROUTE  # the implicit "no route" default

    def normalise(node: _N) -> None:
        if (node.left is None) != (node.right is None):
            if node.left is None:
                node.left = _N()
            else:
                node.right = _N()
        if node.left is not None:
            normalise(node.left)
        if node.right is not None:
            normalise(node.right)

    normalise(root)

    # Pass 1+2 fused: push inherited down; compute candidate sets up.
    def up(node: _N, inherited: int) -> FrozenSet[int]:
        if node.route != NO_ROUTE:
            inherited = node.route
        if node.left is None:  # leaf
            node.candidates = frozenset((inherited,))
            return node.candidates
        left = up(node.left, inherited)
        right = up(node.right, inherited)
        both = left & right
        node.candidates = both if both else (left | right)
        return node.candidates

    up(root, NO_ROUTE)

    routes: List[Tuple[Prefix, int]] = []

    # Pass 3: choose next hops top-down.
    def down(node: _N, value: int, length: int, inherited: int) -> None:
        chosen = inherited
        if inherited not in node.candidates:
            chosen = min(node.candidates)  # deterministic pick
            if chosen != NO_ROUTE:
                routes.append((Prefix(value, length, width), chosen))
        if node.left is None:
            return
        bit = 1 << (width - length - 1)
        down(node.left, value, length + 1, chosen)
        down(node.right, value | bit, length + 1, chosen)

    down(root, 0, 0, NO_ROUTE)
    return routes
