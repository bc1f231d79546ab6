"""Binary serialization of compiled Poptries (legacy surface).

A router restarting should not have to recompile its FIB from the RIB if
nothing changed; routers also ship compiled FIBs from a control plane to
line cards.

.. deprecated::
    The blessed persistence surface is now the zero-copy image API:
    ``structure.to_image()`` / :func:`repro.parallel.image.save_structure`
    / :func:`repro.parallel.image.load_structure` (see docs/PARALLEL.md).
    This module's historical entry points — ``save``, ``load``,
    ``dump_bytes``, ``load_bytes`` — still resolve (to the image-based
    implementations) through a PEP 562 shim that emits a
    ``DeprecationWarning``.  Snapshots are therefore written in the
    ``RPIMG001`` image format; the legacy ``POPTRIE1`` format documented
    below is still *read* transparently by ``load``/``load_bytes``.

Legacy ``POPTRIE1`` format (little-endian):

    magic   8 bytes   b"POPTRIE1"
    header  u32 × 8   k, s, use_leafvec, leaf_bits, width,
                      node_count, leaf_count, root_index
    nodes   node_count × (vec u64, lvec u64, base0 u32, base1 u32)
    leaves  leaf_count × (u16 | u32)
    direct  2^s × u32 (when s > 0)
    crc32   u32 over everything above

Serialized tries are *compacted* in both formats: the node/leaf arrays
are written out in live-block order and indices are remapped
(:func:`_compact_state`), so a trie that went through heavy incremental
updating (buddy fragmentation) deserializes into the tight layout a
fresh compile would produce.
"""

from __future__ import annotations

import struct
import warnings
import zlib
from array import array
from typing import Dict, Tuple

from repro.core.poptrie import DIRECT_LEAF, Poptrie, PoptrieConfig
from repro.errors import SnapshotFormatError

MAGIC = b"POPTRIE1"
_HEADER = struct.Struct("<8I")

#: Historical name for :class:`repro.errors.SnapshotFormatError` — the blob
#: is not a valid Poptrie snapshot (truncated, bad magic, CRC, bounds).
CorruptSnapshot = SnapshotFormatError


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

    Shared by the legacy ``POPTRIE1`` writer and
    ``Poptrie._image_state``: indices are remapped so a fragmented trie
    serializes into the tight layout a fresh compile would produce.
    Returns ``(node_count, leaf_count, root_index, arrays)`` with
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
    leaves = array(leaf_code, bytes(trie.config.leaf_bytes * max(leaf_count, 1)))
    if leaf_count == 0:
        leaves = array(leaf_code)
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


def _dump_bytes_v1(trie: Poptrie) -> bytes:
    """Freeze ``trie`` to a legacy ``POPTRIE1`` snapshot (tests only —
    the writing surface is the image API)."""
    node_count, leaf_count, root, arrays = _compact_state(trie)
    header = _HEADER.pack(
        trie.k,
        trie.s,
        1 if trie.config.use_leafvec else 0,
        trie.config.leaf_bits,
        trie.width,
        node_count,
        leaf_count,
        root,
    )
    body = (
        MAGIC
        + header
        + arrays["vec"].tobytes()
        + arrays["lvec"].tobytes()
        + arrays["base0"].tobytes()
        + arrays["base1"].tobytes()
        + arrays["leaves"].tobytes()
        + arrays["direct"].tobytes()
    )
    return body + struct.pack("<I", zlib.crc32(body))


def _load_bytes_v1(blob: bytes) -> Poptrie:
    """Thaw a legacy ``POPTRIE1`` snapshot."""
    if len(blob) < len(MAGIC) + _HEADER.size + 4:
        raise CorruptSnapshot("snapshot truncated")
    if blob[: len(MAGIC)] != MAGIC:
        raise CorruptSnapshot("bad magic")
    (crc,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(blob[:-4]) != crc:
        raise CorruptSnapshot("CRC mismatch")

    offset = len(MAGIC)
    k, s, use_leafvec, leaf_bits, width, node_count, leaf_count, root = (
        _HEADER.unpack_from(blob, offset)
    )
    offset += _HEADER.size
    try:
        config = PoptrieConfig(
            k=k, s=s, use_leafvec=bool(use_leafvec), leaf_bits=leaf_bits
        )
        trie = Poptrie(config, width=width)
    except ValueError as error:
        raise CorruptSnapshot(f"invalid snapshot header: {error}") from error

    def take(code: str, count: int) -> array:
        nonlocal offset
        out = array(code)
        nbytes = out.itemsize * count
        out.frombytes(blob[offset : offset + nbytes])
        if len(out) != count:
            raise CorruptSnapshot("snapshot truncated in arrays")
        offset += nbytes
        return out

    vec = take("Q", node_count)
    lvec = take("Q", node_count)
    base0 = take("I", node_count)
    base1 = take("I", node_count)
    leaves = take("H" if leaf_bits == 16 else "I", leaf_count)
    direct = take("I", (1 << s) if s else 0)

    # Pre-size the allocators so the first allocation starts at offset 0
    # without a grow.
    from repro.mem.buddy import BuddyAllocator

    trie.node_alloc = BuddyAllocator(capacity=max(64, node_count))
    trie.leaf_alloc = BuddyAllocator(capacity=max(64, leaf_count))
    if node_count:
        base = trie.alloc_nodes(node_count)
        assert base == 0, "fresh trie must allocate from offset zero"
        trie.vec[:node_count] = vec
        trie.lvec[:node_count] = lvec
        trie.base0[:node_count] = base0
        trie.base1[:node_count] = base1
    if leaf_count:
        leaf_base = trie.alloc_leaves(leaf_count)
        assert leaf_base == 0
        trie.leaves[:leaf_count] = leaves
    if s:
        trie.direct[:] = direct
    else:
        trie.root_index = root

    validate(trie)
    return trie


#: Historical entry points and their image-API replacements.  They
#: resolve through :func:`__getattr__` (PEP 562) with a
#: ``DeprecationWarning`` to the equivalent functions of
#: :mod:`repro.parallel.image`, which write the ``RPIMG001`` image
#: format and read both formats.
_MOVED = {
    "save": "save_structure",
    "load": "load_structure",
    "dump_bytes": "structure_to_bytes",
    "load_bytes": "structure_from_bytes",
}


def __getattr__(name: str):
    target = _MOVED.get(name)
    if target is not None:
        warnings.warn(
            f"repro.core.serialize.{name} is deprecated; use "
            f"repro.parallel.image.{target} (the to_image()/from_image() "
            "persistence surface)",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.parallel import image

        return getattr(image, target)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MOVED))


def validate(trie: Poptrie) -> None:
    """Structural self-check; raises :class:`CorruptSnapshot` on violation.

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
            raise CorruptSnapshot(f"node index {index} out of bounds")
        vector = trie.vec[index]
        leafvec = trie.lvec[index]
        children = vector.bit_count()
        if children:
            if trie.base1[index] + children > node_limit:
                raise CorruptSnapshot(f"child block of node {index} overflows")
            stack.extend(trie.base1[index] + i for i in range(children))
        if trie.config.use_leafvec:
            leaf_count = leafvec.bit_count()
            for v in range(k_slots):
                if not (vector >> v) & 1 and not leafvec & ((2 << v) - 1):
                    raise CorruptSnapshot(
                        f"node {index}: leaf slot {v} has no run start"
                    )
        else:
            leaf_count = k_slots - children
        if leaf_count and trie.base0[index] + leaf_count > leaf_limit:
            raise CorruptSnapshot(f"leaf block of node {index} overflows")
