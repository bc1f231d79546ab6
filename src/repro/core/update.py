"""Incremental Poptrie update surgery (Section 3.5).

The paper's update protocol builds the replacement part of the trie on the
side, then publishes it with a single atomic pointer/index write so readers
never observe a half-built structure.  This module holds that surgery as
functions of a compiled :class:`~repro.core.poptrie.Poptrie` and the RIB it
was compiled from; ``Poptrie._stage`` drives them, one message at a time.

- :func:`stage` runs after the RIB already holds a message.  It groups
  the message's prefixes into disjoint regions and, for each region,
  builds the replacement subtree entirely on the side — fresh buddy-allocator
  blocks, children emitted before parents — and records the writes that
  would publish it in a :class:`_Patch` without touching anything a reader
  can see.  An exception during staging therefore leaves the visible
  structure untouched: rolling back only has to return the allocators and
  counters to their pre-stage state.
- :func:`commit` applies the patch's writes, counts the replacements in
  :class:`UpdateStats`, and only then frees the replaced blocks.
- The rebuild descends the chunk path while the node's ``(vector,
  leafvec)`` signature is unchanged — those nodes are kept and only a child
  pointer swap is needed — and rebuilds the deepest subtree whose shape
  changed, exactly the paper's "replace the root of the affected subtree"
  rule.
- When the updated prefix is shorter than the direct-pointing width ``s``,
  the affected slice of the top-level array is rewritten (the paper
  replaces the whole 2^s array; the observable effect is identical and we
  count it as a top-level replacement either way).

:class:`UpdateStats` mirrors the quantities reported in Section 4.9: how
many internal nodes, leaves and top-level entries each update replaced.
:class:`TxnStats` counts how each update ended.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.core import builder
from repro.core.poptrie import DIRECT_LEAF, Poptrie
from repro.net.prefix import Prefix
from repro.net.rib import ROOT, Rib
from repro.net.values import NO_ROUTE


@dataclass
class UpdateStats:
    """Replacement accounting per Section 4.9."""

    updates: int = 0
    toplevel_replacements: int = 0
    inodes_replaced: int = 0
    leaves_replaced: int = 0

    def per_update(self) -> Tuple[float, float, float]:
        """(top-level, leaves, inodes) replaced per update, as in §4.9."""
        n = max(self.updates, 1)
        return (
            self.toplevel_replacements / n,
            self.leaves_replaced / n,
            self.inodes_replaced / n,
        )


@dataclass
class TxnStats:
    """How each update ended, as ``repro_txn_outcomes_total`` counts it
    (docs/OBSERVABILITY.md)."""

    commits: int = 0
    rollbacks: int = 0
    fallback_rebuilds: int = 0
    threshold_rebuilds: int = 0
    rejected: int = 0


def _count_txn(outcome: str, count: int = 1) -> None:
    """Count ``count`` updates' outcome in the metrics registry (the null
    registry's no-op counter while observability is disabled)."""
    from repro import obs

    obs.registry().counter(
        "repro_txn_outcomes_total",
        "Transactional update outcomes by kind.",
        outcome=outcome,
    ).inc(count)


@dataclass
class _Patch:
    """The staged, not-yet-visible result of one message.

    Everything a commit needs: the in-place node writes that republish
    rebuilt subtrees (``node_writes``), the direct-array entry writes and
    range fills, the blocks of the replaced subtrees to free *after*
    publication, and the replacement counts for :class:`UpdateStats`.
    """

    node_writes: List[Tuple[int, int, int, int, int]] = field(default_factory=list)
    direct_writes: List[Tuple[int, int]] = field(default_factory=list)
    direct_fills: List[Tuple[int, int, int]] = field(default_factory=list)
    frees: List[Tuple[str, int, int]] = field(default_factory=list)
    toplevel: int = 0
    inodes: int = 0
    leaves: int = 0


def stage(trie: Poptrie, rib: Rib, prefixes: Iterable[Prefix]) -> _Patch:
    """Build the replacement for each disjoint region ``prefixes`` touch,
    as ``rib`` now has it, on the side (nothing visible yet), once per
    region, along the longest common prefix of its members.

    >>> rib = Rib()
    >>> trie = Poptrie.from_rib(rib)
    >>> rib.insert(Prefix.parse("10.0.0.0/24"), 1)  # the RIB first
    0
    >>> patch = stage(trie, rib, [Prefix.parse("10.0.0.0/24")])
    >>> trie.lookup(Prefix.parse("10.0.0.1/32").value)  # not published yet
    0
    >>> stats = UpdateStats()
    >>> commit(trie, patch, stats, updates=1)
    >>> trie.lookup(Prefix.parse("10.0.0.1/32").value), stats.updates
    (1, 1)
    """
    patch = _Patch()
    prefixes = list(prefixes)
    regions = [prefixes] if len(prefixes) == 1 else _regions(trie, rib, prefixes)
    for members in regions:
        prefix = members[0] if len(members) == 1 else _common_prefix(members)
        if trie.s and prefix.length <= trie.s:
            _stage_toplevel_range(trie, rib, prefix, patch)
        elif trie.s:
            _stage_direct_entry(trie, rib, prefix, patch)
        else:
            _stage_refine(
                trie, rib, trie.root_index, ROOT, NO_ROUTE, 0, prefix, patch
            )
    return patch


def _regions(
    trie: Poptrie, rib: Rib, prefixes: List[Prefix]
) -> List[List[Prefix]]:
    """Disjoint regions: a prefix of length ≤ s claims its direct slice
    and every member inside it, the rest group by direct index (at s = 0,
    by :func:`_nested_regions`)."""
    if not trie.s:
        return _nested_regions(trie, rib, prefixes)
    s, shift = trie.s, trie.width - trie.s
    regions: List[List[Prefix]] = []
    end = -1
    # Slices nest or are disjoint: the widest one at an index comes first.
    for prefix in sorted(prefixes, key=lambda p: (p.value >> shift, p.length)):
        index = prefix.value >> shift
        if index >= end:
            regions.append([])
            end = index + (1 << max(s - prefix.length, 0))
        regions[-1].append(prefix)
    return regions


def _nested_regions(
    trie: Poptrie, rib: Rib, prefixes: List[Prefix]
) -> List[List[Prefix]]:
    """Merge groups while one's rebuilt subtree (the end of its
    :func:`_descend` path) lies on another's path, then descend again."""
    done: List[Tuple[List[Prefix], List[int]]] = []
    pending = [[prefix] for prefix in prefixes]
    while pending:
        group = pending.pop()
        path = _descend(trie, rib, trie.root_index, ROOT, NO_ROUTE, 0,
                        _common_prefix(group))[0]
        nested = [
            i for i, (_, other) in enumerate(done)
            if path[-1] in other or other[-1] in path
        ]
        if not nested:
            done.append((group, path))
            continue
        for i in reversed(nested):
            group += done.pop(i)[0]
        pending.append(group)
    return [group for group, _ in done]


def _common_prefix(prefixes: List[Prefix]) -> Prefix:
    """The longest prefix that contains every one of ``prefixes``."""
    first = prefixes[0]
    width = first.width
    length = min(prefix.length for prefix in prefixes)
    for prefix in prefixes[1:]:
        length -= ((first.value ^ prefix.value) >> (width - length)).bit_length()
    shift = width - length
    return Prefix(first.value >> shift << shift, length, width)


def commit(trie: Poptrie, patch: _Patch, stats: UpdateStats, updates: int) -> None:
    """Publish a staged patch, count it as ``updates`` updates, then
    release the replaced blocks.

    The only writes a reader can observe happen here, and each is
    individually atomic under the GIL: the root-node writes that swing
    rebuilt subtrees in, and direct-array entry stores whose old and new
    targets are both complete structures throughout.  No fault point
    fires here.
    """
    for write in patch.node_writes:
        trie.write_node(*write)
    direct = trie.direct
    for index, value in patch.direct_writes:
        direct[index] = value
    for base, span, value in patch.direct_fills:
        direct[base : base + span] = array("I", [value]) * span
    stats.updates += updates
    stats.toplevel_replacements += patch.toplevel
    stats.inodes_replaced += patch.inodes
    stats.leaves_replaced += patch.leaves
    _publish_update_obs(updates, patch.toplevel, patch.inodes, patch.leaves)
    for kind, offset, count in patch.frees:
        if kind == "nodes":
            trie.free_nodes(offset, count)
        else:
            trie.free_leaves(offset, count)


def _publish_update_obs(
    updates: int, toplevel: int, inodes: int, leaves: int,
    engine: str = "incremental",
) -> None:
    """Mirror published updates into the metrics registry (§4.9's
    replacement quantities); a no-op while observability is disabled."""
    from repro import obs

    if not obs.enabled():
        return
    reg = obs.registry()
    reg.counter(
        "repro_updates_total", "Committed route updates.", engine=engine
    ).inc(updates)
    reg.counter(
        "repro_update_toplevel_replacements_total",
        "Direct-array entries rewritten by updates.",
    ).inc(toplevel)
    reg.counter(
        "repro_update_inodes_replaced_total",
        "Internal nodes replaced by updates.",
    ).inc(inodes)
    reg.counter(
        "repro_update_leaves_replaced_total",
        "Leaf slots replaced by updates.",
    ).inc(leaves)


def _stage_subtree(
    trie: Poptrie, rib: Rib, rnode: int, inherited: int, patch: _Patch
) -> int:
    """Serialize a fresh subtree for RIB node ``rnode``; returns its root
    index."""
    tmp = builder.expand_node(
        rib, rnode, inherited, trie.k, trie.config.use_leafvec
    )
    serializer = builder.Serializer(trie)
    index = serializer.serialize(tmp)
    patch.inodes += serializer.nodes_written
    patch.leaves += serializer.leaves_written
    return index


# -- top-level (direct pointing) updates ----------------------------------------


def _stage_toplevel_range(
    trie: Poptrie, rib: Rib, prefix: Prefix, patch: _Patch
) -> None:
    """Stage a rewrite of the direct-array slice covered by a prefix with
    length ≤ s.

    The paper replaces the entire 2^s array in this case; rewriting the
    covered slice has the same observable result and the same accounting
    (one top-level replacement event).
    """
    stride = trie.s - prefix.length
    base = prefix.value >> (trie.width - trie.s)
    for i in range(base, base + (1 << stride)):
        entry = trie.direct[i]
        if not entry & DIRECT_LEAF:
            patch.frees.extend(_collect_blocks(trie, entry))
            patch.frees.append(("nodes", entry, 1))
    rnode, inherited = rib.descend(ROOT, NO_ROUTE, base >> stride, prefix.length)
    for offset, span, next_hop, subtree in rib.expand(rnode, inherited, stride):
        at = base + offset
        if subtree is not None:
            patch.direct_writes.append(
                (at, _stage_subtree(trie, rib, subtree, next_hop, patch))
            )
        elif span == 1:
            patch.direct_writes.append((at, DIRECT_LEAF | next_hop))
        else:
            patch.direct_fills.append((at, span, DIRECT_LEAF | next_hop))
    patch.toplevel += 1


def _stage_direct_entry(
    trie: Poptrie, rib: Rib, prefix: Prefix, patch: _Patch
) -> None:
    """Stage an update under exactly one direct entry (prefix longer
    than s)."""
    index = prefix.value >> (trie.width - trie.s)
    entry = trie.direct[index]
    rnode, inherited = rib.descend(ROOT, NO_ROUTE, index, trie.s)
    ((_, _, effective, subtree),) = rib.expand(rnode, inherited, 0)
    if entry & DIRECT_LEAF:
        if subtree is not None:
            patch.direct_writes.append(
                (index, _stage_subtree(trie, rib, subtree, effective, patch))
            )
        else:
            patch.direct_writes.append((index, DIRECT_LEAF | effective))
        return
    if subtree is None:
        # The subtree collapsed to a single leaf: store the FIB index
        # directly (the paper's "leaf brought to the upper level" case,
        # taken all the way to the direct array) and free the subtree
        # once the new entry is published.
        patch.frees.extend(_collect_blocks(trie, entry))
        patch.frees.append(("nodes", entry, 1))
        patch.direct_writes.append((index, DIRECT_LEAF | effective))
        return
    _stage_refine(trie, rib, entry, subtree, inherited, trie.s, prefix, patch)


# -- subtree refinement -----------------------------------------------------------


def _stage_refine(
    trie: Poptrie,
    rib: Rib,
    index: int,
    rnode: Optional[int],
    inherited: int,
    offset: int,
    prefix: Prefix,
    patch: _Patch,
) -> None:
    """Descend while the node's shape is unchanged, then stage a rebuild
    of the deepest affected subtree in place at its root."""
    path, shallow = _descend(trie, rib, index, rnode, inherited, offset, prefix)
    index = path[-1]
    # Stage the in-place replacement: emit the new subtree's descendants
    # into fresh blocks, keep the root slot, and defer the root write —
    # the single atomic publication — to the commit phase.
    patch.frees.extend(_collect_blocks(trie, index))
    tmp = builder.expand_children(rib, shallow, trie.k, trie.config.use_leafvec)
    serializer = builder.Serializer(trie)
    fields = serializer.serialize_fields(tmp)
    patch.node_writes.append((index, *fields))
    patch.inodes += serializer.nodes_written
    patch.leaves += serializer.leaves_written


def _descend(
    trie: Poptrie, rib: Rib, index: int, rnode: Optional[int], inherited: int,
    offset: int, prefix: Prefix,
) -> Tuple[List[int], builder.TmpNode]:
    """Follow ``prefix`` down from node ``index`` while each node's
    shape is unchanged; the nodes visited (the last is the root of the
    subtree to rebuild) and that root's new shallow node."""
    k = trie.k
    use_leafvec = trie.config.use_leafvec
    path = [index]
    while True:
        slots = builder.expand_chunk(rib, rnode, inherited, k)
        shallow = builder.make_shallow(slots, use_leafvec)
        old_sig = (trie.vec[index], trie.lvec[index] if use_leafvec else 0)
        if shallow.shallow_signature() != old_sig or prefix.length <= offset + k:
            break
        v = _chunk_of(prefix, offset, k)
        if not (trie.vec[index] >> v) & 1:
            break
        rank = (trie.vec[index] & ((2 << v) - 1)).bit_count() - 1
        rnode, inherited = rib.descend(rnode, inherited, v, k)
        index = trie.base1[index] + rank
        path.append(index)
        offset += k
    return path, shallow


def _collect_blocks(trie: Poptrie, index: int) -> List[Tuple[str, int, int]]:
    """Blocks owned by the subtree at ``index`` (excluding its own slot)."""
    blocks: List[Tuple[str, int, int]] = []
    stack = [index]
    while stack:
        at = stack.pop()
        vector = trie.vec[at]
        leaf_count = _leaf_count_of(trie, at)
        if leaf_count:
            blocks.append(("leaves", trie.base0[at], leaf_count))
        child_count = vector.bit_count()
        if child_count:
            blocks.append(("nodes", trie.base1[at], child_count))
            stack.extend(trie.base1[at] + i for i in range(child_count))
    return blocks


def _leaf_count_of(trie: Poptrie, index: int) -> int:
    if trie.config.use_leafvec:
        return trie.lvec[index].bit_count()
    return (1 << trie.k) - trie.vec[index].bit_count()


def _chunk_of(prefix: Prefix, offset: int, k: int) -> int:
    """The k-bit chunk of ``prefix.value`` at bit offset ``offset``."""
    from repro.net.ip import extract

    return extract(prefix.value, offset, k, prefix.width)
