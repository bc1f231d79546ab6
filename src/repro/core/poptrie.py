"""Poptrie: the compressed 2^k-ary trie with population count.

Implements Sections 3.1–3.4 of the paper with the same data layout:

- an internal node is ``(vector, base0, base1)`` — 16 bytes — or, with the
  leafvec extension, ``(vector, leafvec, base0, base1)`` — 24 bytes;
- leaves are 16-bit FIB indices (configurable to 32 for the structural
  scalability discussion of Section 5);
- descendant internal nodes and compressed leaves of each node live in
  contiguous array blocks reached through ``base1``/``base0`` plus a
  population count over ``vector``/``leafvec`` (Algorithms 1 and 2);
- direct pointing (Section 3.4) replaces the first ``s`` bits with a
  2^s-entry array whose entries are either node indices or FIB indices
  tagged with the most significant bit (Algorithm 3).

The paper fixes ``k = 6`` so a vector fills one 64-bit register; we default
to 6 but keep ``k`` configurable, which lets the unit tests exercise the
``k = 2`` worked example of the paper's Figures 1–4 directly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core import builder
from repro.errors import SnapshotFormatError, StructuralLimitError
from repro.lookup.base import (
    LookupStructure, Staged, StructureConfig, check_fib_capacity,
)
from repro.lookup.registry import register
from repro.mem.buddy import BuddyAllocator
from repro.mem.layout import AccessTrace, MemoryMap
from repro.net.rib import ROOT, Rib
from repro.net.values import NO_ROUTE
from repro.obs.tracing import span

#: Most-significant-bit tag of a direct-pointing entry: set ⇒ the remaining
#: 31 bits are a FIB index; clear ⇒ they are an internal-node index.
DIRECT_LEAF = 1 << 31

#: Per-slot instruction estimates used by the cycle model (Section 4.6
#: substitute): one trie step is roughly extract + test + popcount + add.
_STEP_INSTRUCTIONS = 6
_LEAF_INSTRUCTIONS = 5
_DIRECT_INSTRUCTIONS = 4


@dataclass(frozen=True)
class PoptrieConfig(StructureConfig):
    """Build-time options (the rows of Table 2).

    ``s = 0`` disables direct pointing; the paper evaluates 0, 16 and 18.
    ``use_leafvec`` enables the Section 3.3 leaf compression.  ``leaf_bits``
    is 16 in the paper (2-byte leaves, max 2^16 FIB entries) and may be 32
    here per the Section 5 structural-scalability discussion.
    """

    k: int = 6
    s: int = 18
    use_leafvec: bool = True
    leaf_bits: int = 16

    def __post_init__(self) -> None:
        if not 1 <= self.k <= 6:
            raise ValueError("k must be in 1..6 (vector must fit 64 bits)")
        if self.s < 0:
            raise ValueError("s must be non-negative")
        if self.leaf_bits not in (16, 32):
            raise ValueError("leaf_bits must be 16 or 32")

    @property
    def node_bytes(self) -> int:
        """16 bytes basic, 24 with leafvec (Section 3)."""
        return 24 if self.use_leafvec else 16

    @property
    def leaf_bytes(self) -> int:
        return self.leaf_bits // 8


class Poptrie(LookupStructure):
    """The Poptrie lookup structure.

    Build one with :meth:`from_rib`; once bound to its RIB it takes
    §3.5's incremental updates through :meth:`apply_updates` (or one at
    a time through :class:`repro.robust.txn.TransactionalPoptrie`):

    >>> from repro.net.rib import Rib
    >>> from repro.net.prefix import Prefix
    >>> rib = Rib()
    >>> rib.insert(Prefix.parse("192.0.2.0/24"), 1)
    0
    >>> rib.insert(Prefix.parse("0.0.0.0/0"), 2)
    0
    >>> t = Poptrie.from_rib(rib)
    >>> t.lookup(Prefix.parse("192.0.2.55/32").value)
    1
    >>> t.lookup(Prefix.parse("198.51.100.1/32").value)
    2
    """

    def __init__(self, config: PoptrieConfig = PoptrieConfig(), width: int = 32):
        if config.s > width:
            raise ValueError(f"direct pointing s={config.s} exceeds width {width}")
        self.config = config
        self.width = width
        self.k = config.k
        self.s = config.s
        # The paper's naming convention: "Poptrie18" means s = 18.
        self.name = f"Poptrie{self.s}"
        if not config.use_leafvec:
            self.name += " (basic)"
        # Padded key width so every chunk read stays in-range (Algorithm 1's
        # extract() zero-pads past the end of the address).
        levels = -(-(width - self.s) // self.k) if width > self.s else 1
        self._padded_width = self.s + self.k * levels
        self._pad = self._padded_width - width
        self._kmask = (1 << self.k) - 1

        self.node_alloc = BuddyAllocator(capacity=64)
        self.leaf_alloc = BuddyAllocator(capacity=64)
        self.vec = array("Q", bytes(8 * self.node_alloc.capacity))
        self.lvec = array("Q", bytes(8 * self.node_alloc.capacity))
        self.base0 = array("I", bytes(4 * self.node_alloc.capacity))
        self.base1 = array("I", bytes(4 * self.node_alloc.capacity))
        leaf_code = "H" if config.leaf_bits == 16 else "I"
        self.leaves = array(leaf_code, bytes(config.leaf_bytes * 64))
        self.direct = array("I", bytes(4 << self.s)) if self.s else array("I")
        self.root_index = 0

        #: Logical counts — what Table 2 reports as "# of inodes"/"# of
        #: leaves" (buddy blocks may be rounded up beyond these).
        self.inode_count = 0
        self.leaf_count = 0

        #: Kept by :meth:`_stage`'s publish (generation: +1 per change).
        self.update_stats = UpdateStats()
        self.txn_stats = TxnStats()
        self.generation = 0

        # Virtual addresses for cache-simulation traces.
        self.memmap = MemoryMap()
        self._node_region = self.memmap.add_region(
            "poptrie.nodes", config.node_bytes, self.node_alloc.capacity
        )
        self._leaf_region = self.memmap.add_region(
            "poptrie.leaves", config.leaf_bytes, len(self.leaves)
        )
        self._direct_region = self.memmap.add_region(
            "poptrie.direct", 4, max(len(self.direct), 1)
        )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_rib(
        cls,
        rib: Rib,
        config: Optional[PoptrieConfig] = None,
        fib_size: Optional[int] = None,
        **options,
    ) -> "Poptrie":
        """Compile a Poptrie from a radix-tree RIB.

        Build options come either as a :class:`PoptrieConfig` or as the
        equivalent keywords (``s=18``, ``use_leafvec=False``, ...);
        unknown option names raise ``TypeError``.  ``fib_size`` (the FIB's
        entry count; defaults to one more than the RIB's largest index)
        is checked against :attr:`fib_limit` — Section 5's structural
        limit.  The compile (:func:`repro.core.compiler.compile_rib`)
        works level by level in numpy and yields the same arrays,
        allocator states and counts as :func:`build_scalar`.
        """
        config = PoptrieConfig.resolve(config, options)
        with span("poptrie.from_rib"):
            trie = cls._sized_for(rib, config, fib_size)
            compile_rib(trie, rib)
            return trie

    @classmethod
    def _sized_for(
        cls, rib: Rib, config: PoptrieConfig, fib_size: Optional[int]
    ) -> "Poptrie":
        """An empty trie for ``rib``, once its FIB fits the leaves."""
        trie = cls(config, width=rib.width)
        check_fib_capacity(
            trie, rib.max_fib_index() if fib_size is None else fib_size - 1
        )
        return trie

    @property
    def fib_limit(self) -> int:
        """The largest FIB index a ``leaf_bits``-wide leaf encodes."""
        return (1 << self.config.leaf_bits) - 1

    # -- serialization target interface (used by builder.Serializer) ----------

    def alloc_nodes(self, count: int) -> int:
        offset = self.node_alloc.alloc(count)
        self.inode_count += count
        self._sync_node_arrays()
        return offset

    def free_nodes(self, offset: int, count: int) -> None:
        self.node_alloc.free(offset)
        self.inode_count -= count

    def alloc_leaves(self, count: int) -> int:
        offset = self.leaf_alloc.alloc(count)
        self.leaf_count += count
        self._sync_leaf_array()
        return offset

    def free_leaves(self, offset: int, count: int) -> None:
        self.leaf_alloc.free(offset)
        self.leaf_count -= count

    def write_node(
        self, index: int, vector: int, leafvec: int, base0: int, base1: int
    ) -> None:
        self.vec[index] = vector
        self.lvec[index] = leafvec
        self.base0[index] = base0
        self.base1[index] = base1

    def write_leaf(self, index: int, value: int) -> None:
        if value >= (1 << self.config.leaf_bits):
            raise StructuralLimitError(
                f"FIB index {value} exceeds {self.config.leaf_bits}-bit leaf"
            )
        self.leaves[index] = value

    def _sync_node_arrays(self) -> None:
        capacity = self.node_alloc.capacity
        if len(self.vec) < capacity:
            grow = capacity - len(self.vec)
            self.vec.extend([0] * grow)
            self.lvec.extend([0] * grow)
            self.base0.extend([0] * grow)
            self.base1.extend([0] * grow)
            self._node_region = self.memmap.resize_region("poptrie.nodes", capacity)

    def _sync_leaf_array(self) -> None:
        capacity = self.leaf_alloc.capacity
        if len(self.leaves) < capacity:
            self.leaves.extend([0] * (capacity - len(self.leaves)))
            self._leaf_region = self.memmap.resize_region("poptrie.leaves", capacity)

    # -- lookup (Algorithms 1–3) -----------------------------------------------

    def lookup(self, key: int) -> int:
        """Longest-prefix-match ``key`` (an integer address) to a FIB index."""
        k = self.k
        kmask = self._kmask
        vec = self.vec
        if self.s:
            entry = self.direct[key >> (self.width - self.s)]
            if entry & DIRECT_LEAF:
                return entry & (DIRECT_LEAF - 1)
            index = entry
            shift = self._padded_width - k - self.s
        else:
            index = self.root_index
            shift = self._padded_width - k
        # Every array is read before the first call: a staged rebuild
        # publishes a whole new state with one ``__dict__`` rebind, and
        # CPython switches threads only at calls and backward jumps, so a
        # concurrent lookup walks the old arrays or the new, never a mix.
        base1, base0, lvec, leaves = self.base1, self.base0, self.lvec, self.leaves
        keyp = key << self._pad
        vector = vec[index]
        v = (keyp >> shift) & kmask
        while (vector >> v) & 1:
            bc = (vector & ((2 << v) - 1)).bit_count()
            index = base1[index] + bc - 1
            vector = vec[index]
            shift -= k
            v = (keyp >> shift) & kmask
        if self.config.use_leafvec:
            bc = (lvec[index] & ((2 << v) - 1)).bit_count()
        else:
            bc = ((~vector) & ((2 << v) - 1)).bit_count()
        return leaves[base0[index] + bc - 1]

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        """Like :meth:`lookup` but records every memory access and an
        instruction estimate into ``trace`` for the cycle simulator."""
        k = self.k
        kmask = self._kmask
        if self.s:
            trace.read(self._direct_region, key >> (self.width - self.s))
            trace.work(_DIRECT_INSTRUCTIONS)
            entry = self.direct[key >> (self.width - self.s)]
            if entry & DIRECT_LEAF:
                return entry & (DIRECT_LEAF - 1)
            index = entry
            shift = self._padded_width - k - self.s
        else:
            index = self.root_index
            shift = self._padded_width - k
        keyp = key << self._pad
        trace.read(self._node_region, index)
        vector = self.vec[index]
        v = (keyp >> shift) & kmask
        while (vector >> v) & 1:
            trace.work(_STEP_INSTRUCTIONS)
            bc = (vector & ((2 << v) - 1)).bit_count()
            index = self.base1[index] + bc - 1
            trace.read(self._node_region, index)
            vector = self.vec[index]
            shift -= k
            v = (keyp >> shift) & kmask
        # One mostly-biased loop-exit branch per lookup (descend vs leaf).
        trace.mispredict(0.2)
        trace.work(_LEAF_INSTRUCTIONS)
        if self.config.use_leafvec:
            bc = (self.lvec[index] & ((2 << v) - 1)).bit_count()
        else:
            bc = ((~vector) & ((2 << v) - 1)).bit_count()
        leaf_index = self.base0[index] + bc - 1
        trace.read(self._leaf_region, leaf_index)
        return self.leaves[leaf_index]

    # -- zero-copy images ------------------------------------------------

    def _image_state(self):
        """Compacted arrays + scalars for :meth:`LookupStructure.to_image`.

        Emitted through :func:`_compact_state`, so images always come
        out in the tight live-block order a fresh compile would produce —
        two compiles of equal RIBs yield byte-identical images, which
        makes ``TableImage.fingerprint()`` a table identity.
        """
        node_count, leaf_count, root, arrays = _compact_state(self)
        meta = {
            "k": self.k,
            "s": self.s,
            "use_leafvec": self.config.use_leafvec,
            "leaf_bits": self.config.leaf_bits,
            "width": self.width,
            "node_count": node_count,
            "leaf_count": leaf_count,
            "root_index": root,
        }
        return meta, arrays

    @classmethod
    def _from_image_state(cls, meta, segments, *, copy: bool) -> "Poptrie":
        try:
            config = PoptrieConfig(
                k=int(meta["k"]),
                s=int(meta["s"]),
                use_leafvec=bool(meta["use_leafvec"]),
                leaf_bits=int(meta["leaf_bits"]),
            )
            width = int(meta["width"])
            node_count = int(meta["node_count"])
            leaf_count = int(meta["leaf_count"])
            root = int(meta["root_index"])
            trie = cls(config, width=width)
            vec, lvec = segments["vec"], segments["lvec"]
            base0, base1 = segments["base0"], segments["base1"]
            leaves, direct = segments["leaves"], segments["direct"]
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotFormatError(
                f"invalid poptrie image: {error}"
            ) from error
        if (
            len(vec) != node_count
            or len(lvec) != node_count
            or len(base0) != node_count
            or len(base1) != node_count
            or len(leaves) != leaf_count
            or leaves.itemsize != config.leaf_bytes
            or len(direct) != ((1 << config.s) if config.s else 0)
        ):
            raise SnapshotFormatError(
                "poptrie image segments inconsistent with header"
            )

        if copy:
            # Materialize private, mutable arrays — the historical
            # snapshot-load semantics.  Pre-size the allocators so the
            # first allocation starts at offset 0 without a grow.
            trie.node_alloc = BuddyAllocator(capacity=max(64, node_count))
            trie.leaf_alloc = BuddyAllocator(capacity=max(64, leaf_count))
            if node_count:
                base = trie.alloc_nodes(node_count)
                assert base == 0, "fresh trie must allocate from offset zero"
                trie.vec[:node_count] = array("Q", vec.tobytes())
                trie.lvec[:node_count] = array("Q", lvec.tobytes())
                trie.base0[:node_count] = array("I", base0.tobytes())
                trie.base1[:node_count] = array("I", base1.tobytes())
            if leaf_count:
                leaf_base = trie.alloc_leaves(leaf_count)
                assert leaf_base == 0
                leaf_code = "H" if config.leaf_bits == 16 else "I"
                trie.leaves[:leaf_count] = array(leaf_code, leaves.tobytes())
            if config.s:
                trie.direct[:] = array("I", direct.tobytes())
            else:
                trie.root_index = root
        else:
            # Zero-copy attach: wrap the image's buffer in read-only
            # views.  The trie is frozen — every mutation path hits a
            # read-only numpy array — but lookups (scalar, traced and
            # kernel) work unchanged, which is what pool workers do
            # against shared memory.
            def frozen(arr):
                view = np.asarray(arr).view()
                view.flags.writeable = False
                return view

            trie.vec = frozen(vec)
            trie.lvec = frozen(lvec)
            trie.base0 = frozen(base0)
            trie.base1 = frozen(base1)
            trie.leaves = frozen(leaves)
            trie.direct = frozen(direct)
            trie.root_index = root
            trie.inode_count = node_count
            trie.leaf_count = leaf_count
            trie.frozen = True
            trie._node_region = trie.memmap.resize_region(
                "poptrie.nodes", max(node_count, 1)
            )
            trie._leaf_region = trie.memmap.resize_region(
                "poptrie.leaves", max(leaf_count, 1)
            )

        validate(trie)
        return trie

    # -- incremental updates -------------------------------------------------

    def _stage(self, updates: list, positions: list, report) -> Optional[Staged]:
        """Stage a checked message before the journal (§3.5): fold it into
        the RIB, stage its regions into free buddy blocks under a restore
        point per allocator; a failed stage, or a patch writing more
        internal nodes than the trie holds, falls back to a staged rebuild;
        if that fails too, unfold and refuse every position."""
        rib, count, stats = self.rib, len(updates), self.txn_stats
        undo = fold_updates(rib, updates)
        changed = []
        for update, (_, was) in zip(updates, undo):
            if update.kind == "W" or was != update.nexthop:
                changed.append(update.prefix)
        node_alloc, leaf_alloc = self.node_alloc, self.leaf_alloc
        counts = (self.inode_count, self.leaf_count)
        points = (node_alloc.snapshot(), leaf_alloc.snapshot())

        def restore() -> None:
            node_alloc.restore(points[0])
            leaf_alloc.restore(points[1])
            self.inode_count, self.leaf_count = counts

        patch = None
        try:
            patch = stage(self, rib, changed)
        except Exception:
            restore()
        else:
            if patch.inodes <= counts[0]:

                def publish() -> None:
                    node_alloc.close(points[0])
                    leaf_alloc.close(points[1])
                    if changed:
                        commit(self, patch, self.update_stats, len(changed))
                        self.generation += 1
                    stats.commits += count
                    _count_txn("commit", count)
                    self._updates_applied += count
                    report.applied += count

                def abandon() -> None:
                    restore()
                    unfold_updates(rib, undo)

                return Staged(publish, abandon)
            restore()
        try:
            with span("txn.rebuild"):
                rebuilt = type(self).from_rib(rib, self.config)
        except Exception as error:
            unfold_updates(rib, undo)
            stats.rollbacks += count
            _count_txn("rollback", count)
            for position in positions:
                report.refuse(position, error)
            return None

        def publish_rebuild() -> None:
            if patch is None:
                stats.fallback_rebuilds += count
                _count_txn("fallback_rebuild", count)
            else:
                stats.threshold_rebuilds += count
                _count_txn("threshold_rebuild", count)
            self._updates_applied += count
            report.applied += count
            report.degraded += count
            self.update_stats.updates += len(changed)
            _publish_update_obs(len(changed), 0, 0, 0, engine="rebuild")
            rebuilt.update_stats, rebuilt.txn_stats = self.update_stats, stats
            rebuilt.generation = self.generation + 1
            self._adopt_state(rebuilt)

        return Staged(publish_rebuild, lambda: unfold_updates(rib, undo))

    # -- self-verification -------------------------------------------------

    def verify(self, rib=None, samples: int = 1000, seed: int = 20150817):
        """Check every structural invariant of this trie — vector/leafvec
        disjointness, popcount offset validity, buddy-allocator accounting
        — and, when a shadow ``rib`` is given, longest-prefix-match
        agreement on a deterministic address sample.

        Raises :class:`~repro.errors.VerificationError` on the first
        violation; returns a
        :class:`~repro.robust.verify.VerificationReport` otherwise.  See
        :mod:`repro.robust.verify` for the full invariant list.
        """
        from repro.robust.verify import verify_poptrie

        return verify_poptrie(self, rib, samples=samples, seed=seed)

    # -- introspection -----------------------------------------------------

    def memory_bytes(self) -> int:
        """Data-structure footprint as the paper reports it: live internal
        nodes, live leaf slots, plus the direct-pointing array."""
        return (
            self.inode_count * self.config.node_bytes
            + self.leaf_count * self.config.leaf_bytes
            + 4 * len(self.direct)
        )

    def allocated_bytes(self) -> int:
        """Footprint including buddy-allocator rounding (implementation
        honest; always ≥ :meth:`memory_bytes`)."""
        return (
            self.node_alloc.capacity * self.config.node_bytes
            + self.leaf_alloc.capacity * self.config.leaf_bytes
            + 4 * len(self.direct)
        )

    def _extra_stats(self):
        """Poptrie-specific stats() keys; also refreshes the node/leaf
        allocator gauges in the metrics registry when obs is enabled."""
        self.node_alloc.publish_obs("poptrie.nodes", self.config.node_bytes)
        self.leaf_alloc.publish_obs("poptrie.leaves", self.config.leaf_bytes)
        return {
            "inode_count": self.inode_count,
            "leaf_count": self.leaf_count,
            "direct_entries": len(self.direct),
            "allocated_bytes": self.allocated_bytes(),
            "node_allocator": self.node_alloc.stats(),
            "leaf_allocator": self.leaf_alloc.stats(),
        }

    def depth_of(self, key: int) -> int:
        """Number of internal nodes traversed to look ``key`` up (0 when the
        direct array resolves it).  Drives the Figure 11-style analysis."""
        k = self.k
        if self.s:
            entry = self.direct[key >> (self.width - self.s)]
            if entry & DIRECT_LEAF:
                return 0
            index = entry
            shift = self._padded_width - k - self.s
        else:
            index = self.root_index
            shift = self._padded_width - k
        keyp = key << self._pad
        depth = 1
        vector = self.vec[index]
        v = (keyp >> shift) & self._kmask
        while (vector >> v) & 1:
            bc = (vector & ((2 << v) - 1)).bit_count()
            index = self.base1[index] + bc - 1
            vector = self.vec[index]
            shift -= k
            v = (keyp >> shift) & self._kmask
            depth += 1
        return depth

    def iter_nodes(self) -> Iterable[Tuple[int, int, int, int, int]]:
        """Yield ``(index, vector, leafvec, base0, base1)`` for every node
        reachable from the root(s) — used by the structure-invariant tests."""
        roots: List[int] = []
        if self.s:
            roots = [e for e in self.direct if not e & DIRECT_LEAF]
        else:
            roots = [self.root_index]
        seen = set()
        stack = list(dict.fromkeys(roots))
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            vector = self.vec[index]
            yield index, vector, self.lvec[index], self.base0[index], self.base1[index]
            base1 = self.base1[index]
            for rank in range(vector.bit_count()):
                stack.append(base1 + rank)


# -- the scalar reference compile -------------------------------------------


def build_scalar(
    rib: Rib,
    config: Optional[PoptrieConfig] = None,
    fib_size: Optional[int] = None,
    **options,
) -> Poptrie:
    """Compile ``rib`` one subtree at a time: :func:`builder.expand_node`
    into a TmpNode tree, placed by a :class:`builder.Serializer`.

    The oracle :meth:`Poptrie.from_rib` is held to, byte for byte, as
    the scalar lookup is for the kernels.  Subtrees are serialized in
    direct-array order (Section 3.4); a range without one is filled
    with its tagged FIB index.
    """
    trie = Poptrie._sized_for(rib, PoptrieConfig.resolve(config, options), fib_size)
    k, use_leafvec = trie.k, trie.config.use_leafvec
    serializer = builder.Serializer(trie)
    if not trie.s:
        tmp = builder.expand_node(rib, ROOT, NO_ROUTE, k, use_leafvec)
        trie.root_index = serializer.serialize(tmp)
        return trie
    direct = trie.direct
    for base, count, next_hop, subtree in rib.expand(ROOT, NO_ROUTE, trie.s):
        if subtree is not None:
            tmp = builder.expand_node(rib, subtree, next_hop, k, use_leafvec)
            direct[base] = serializer.serialize(tmp)
        else:
            direct[base : base + count] = array("I", [DIRECT_LEAF | next_hop]) * count
    return trie


# -- image compaction and validation --------------------------------------


def _remap(trie: Poptrie) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Old-index → compact-index maps for reachable nodes and leaves."""
    node_map: Dict[int, int] = {}
    leaf_map: Dict[int, int] = {}
    k_slots = 1 << trie.k

    order = []
    roots = (
        [entry for entry in trie.direct if not entry & DIRECT_LEAF]
        if trie.s
        else [trie.root_index]
    )
    stack = list(dict.fromkeys(roots))
    seen = set(stack)
    while stack:
        index = stack.pop()
        order.append(index)
        vector = trie.vec[index]
        base1 = trie.base1[index]
        for rank in range(vector.bit_count()):
            child = base1 + rank
            if child not in seen:
                seen.add(child)
                stack.append(child)

    # Nodes first: keep each node's children contiguous by assigning child
    # blocks as whole runs.
    for index in order:
        node_map.setdefault(index, len(node_map))
        vector = trie.vec[index]
        count = vector.bit_count()
        if count:
            base1 = trie.base1[index]
            for rank in range(count):
                node_map.setdefault(base1 + rank, len(node_map))
    for index in order:
        if trie.config.use_leafvec:
            leaf_count = trie.lvec[index].bit_count()
        else:
            leaf_count = k_slots - trie.vec[index].bit_count()
        base0 = trie.base0[index]
        for offset in range(leaf_count):
            leaf_map.setdefault(base0 + offset, len(leaf_map))
    return node_map, leaf_map


def _compact_state(trie: Poptrie) -> Tuple[int, int, int, Dict[str, array]]:
    """Compacted copies of a trie's live arrays, in live-block order.

    Indices are remapped so a trie fragmented by incremental updates
    (buddy holes) exports into the tight layout a fresh compile would
    produce.  Returns ``(node_count, leaf_count, root_index, arrays)`` with
    ``arrays`` keyed ``vec``/``lvec``/``base0``/``base1``/``leaves``/
    ``direct``.
    """
    node_map, leaf_map = _remap(trie)
    node_count = len(node_map)
    leaf_count = len(leaf_map)

    vec = array("Q", bytes(8 * node_count))
    lvec = array("Q", bytes(8 * node_count))
    base0 = array("I", bytes(4 * node_count))
    base1 = array("I", bytes(4 * node_count))
    leaf_code = "H" if trie.config.leaf_bits == 16 else "I"
    leaves = array(leaf_code, bytes(trie.config.leaf_bytes * leaf_count))
    for old, new in node_map.items():
        vec[new] = trie.vec[old]
        lvec[new] = trie.lvec[old]
        old_children = trie.vec[old].bit_count()
        base1[new] = node_map[trie.base1[old]] if old_children else 0
        if trie.config.use_leafvec:
            old_leaves = trie.lvec[old].bit_count()
        else:
            old_leaves = (1 << trie.k) - old_children
        base0[new] = leaf_map[trie.base0[old]] if old_leaves else 0
    for old, new in leaf_map.items():
        leaves[new] = trie.leaves[old]

    direct = array("I")
    if trie.s:
        direct = array("I", bytes(4 << trie.s))
        for i, entry in enumerate(trie.direct):
            direct[i] = entry if entry & DIRECT_LEAF else node_map[entry]

    root = node_map.get(trie.root_index, 0) if not trie.s else 0
    arrays = {
        "vec": vec,
        "lvec": lvec,
        "base0": base0,
        "base1": base1,
        "leaves": leaves,
        "direct": direct,
    }
    return node_count, leaf_count, root, arrays


def validate(trie: Poptrie) -> None:
    """Structural self-check; raises :class:`SnapshotFormatError` on violation.

    Verifies that every reachable node/leaf index is in bounds, that
    leafvec runs are well-formed (every leaf slot has a run start at or
    below it — Algorithm 2 never underflows), and that direct entries
    point at sane targets.
    """
    node_limit = len(trie.vec)
    leaf_limit = len(trie.leaves)
    k_slots = 1 << trie.k

    roots = (
        [entry for entry in trie.direct if not entry & DIRECT_LEAF]
        if trie.s
        else [trie.root_index]
    )
    seen = set()
    stack = list(dict.fromkeys(roots))
    while stack:
        index = stack.pop()
        if index in seen:
            continue
        seen.add(index)
        if index >= node_limit:
            raise SnapshotFormatError(f"node index {index} out of bounds")
        vector = trie.vec[index]
        leafvec = trie.lvec[index]
        children = vector.bit_count()
        if children:
            if trie.base1[index] + children > node_limit:
                raise SnapshotFormatError(f"child block of node {index} overflows")
            stack.extend(trie.base1[index] + i for i in range(children))
        if trie.config.use_leafvec:
            leaf_count = leafvec.bit_count()
            for v in range(k_slots):
                if not (vector >> v) & 1 and not leafvec & ((2 << v) - 1):
                    raise SnapshotFormatError(
                        f"node {index}: leaf slot {v} has no run start"
                    )
        else:
            leaf_count = k_slots - children
        if leaf_count and trie.base0[index] + leaf_count > leaf_limit:
            raise SnapshotFormatError(f"leaf block of node {index} overflows")


# Imported last: core.update and core.compiler import from this module;
# data.updates must follow lookup.base.
from repro.core.update import (  # noqa: E402
    TxnStats, UpdateStats, _count_txn, _publish_update_obs, commit, stage,
)
from repro.core.compiler import compile_rib  # noqa: E402
from repro.data.updates import fold_updates, unfold_updates  # noqa: E402

# The paper's evaluated variants (Table 2/Figure 9): compiled from the
# route-aggregated table, with the FIB size validated against the leaf
# width.  Adding a variant here is the single edit the roster needs.
register("Poptrie0", Poptrie, aggregate=True, pass_fib_size=True, s=0)
register("Poptrie16", Poptrie, aggregate=True, pass_fib_size=True, s=16)
register("Poptrie18", Poptrie, aggregate=True, pass_fib_size=True, s=18)
