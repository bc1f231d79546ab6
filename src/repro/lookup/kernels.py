"""Branchless vectorized lookup kernels over TableImage views.

The paper's thesis is that one lookup is a handful of branch-free
popcount+index operations; this module is the batch equivalent.  A
:class:`LookupKernel` is *stateless*: it holds no table, only the
compute.  All table state travels as a **view state** — a plain dict of
numpy arrays (the zero-copy segment views of a
:class:`~repro.parallel.image.TableImage`) plus a few precomputed
scalars.  Because the state is just arrays-over-a-buffer, the identical
kernel object runs

- in-process, fed a live structure's own arrays
  (:meth:`LookupKernel.state_from_structure` — this is what every
  image-capable structure's ``_lookup_batch`` wrapper does);
- inside a :class:`~repro.parallel.WorkerPool` forked worker, fed views
  over a ``multiprocessing.shared_memory`` segment;
- against an mmapped (or plain ``bytes``) image file,

with no live :class:`~repro.lookup.base.LookupStructure` required.
:func:`attach` resolves and binds a kernel to an image in one call.

**How the batch descends.**  The whole key batch moves through the trie
level-by-level as index arithmetic: a gather (``array.take``) per level,
a popcount over masked 64-bit vectors, and lane *compaction*
(``flatnonzero`` + ``take``) instead of per-key branching.  Popcount
uses ``np.bitwise_count`` (single fused SIMD pass) when numpy provides
it, else the classic 256-entry byte-LUT gather (:data:`POP8`).
Unsigned→signed index casts are free ``.view(int64)`` reinterpretations,
never copies.  See docs/KERNELS.md for the per-engine view layouts and
the measured cost model.

**Derived-array exception.**  Kernels compute on the image's segments
as-is, with one documented exception: :class:`DxrKernel` derives the
globally-sorted key column ``(chunk << offset_bits) | start`` from the
``starts``/``chunk_count`` segments at prepare time (DXR's binary search
needs a sorted probe array; the derivation is one ``np.repeat`` + shift,
done once per attach, never per batch).

**Key columns.**  Keys up to 64 bits wide travel as one ``uint64``
column.  128-bit (IPv6) keys arrive as an object array of Python ints;
:class:`PoptrieKernel` splits them once into ``(hi, lo)`` uint64
columns (:func:`split_v6`) and cuts each level's chunk from whichever
word or words hold it — the same descent, two columns wide.

Every structure's ``lookup_batch`` runs its kernel when one is
registered for its class and width, and the scalar loop otherwise
(:meth:`~repro.lookup.base.LookupStructure._lookup_batch`); the scalar
``lookup`` stays the oracle every kernel is tested against.
"""

from __future__ import annotations

import abc
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "LookupKernel",
    "BoundKernel",
    "PoptrieKernel",
    "Dir24_8Kernel",
    "SailKernel",
    "DxrKernel",
    "attach",
    "kernel_for",
    "kernel_for_class",
    "register_kernel",
    "available_kernels",
    "popcount64",
    "split_v6",
]

#: 256-entry byte-wise popcount table (the paper's Section 3.2 trick,
#: vectorized: gather 8 bytes per lane, sum).  Fallback only — numpy 2's
#: ``bitwise_count`` does the same in one fused pass.
POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

_FULL64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_SIXTY3 = np.uint64(63)
_ONE64 = np.uint64(1)

#: MSB tag of a Poptrie direct-pointing entry (mirrors
#: ``repro.core.poptrie.DIRECT_LEAF``; duplicated here so the kernel
#: module imports no structure module — registration is by class path).
_DIRECT_LEAF = 1 << 31
_NODE_MASK32 = np.uint32(_DIRECT_LEAF - 1)

#: 16-bit chunk flag shared by DIR-24-8 and SAIL entries.
_CHUNK_FLAG16 = 1 << 15

#: DXR direct-entry flag.
_DXR_DIRECT = 1 << 31


if hasattr(np, "bitwise_count"):

    def popcount64(values: np.ndarray) -> np.ndarray:
        """Per-lane population count (uint8 result, one fused pass)."""
        return np.bitwise_count(values)

else:  # pragma: no cover - numpy < 2.0

    def popcount64(values: np.ndarray) -> np.ndarray:
        """Per-lane population count via the byte LUT (uint8 result)."""
        as_bytes = values.view(np.uint8).reshape(values.shape + (8,))
        return POP8[as_bytes].sum(axis=-1, dtype=np.uint8)


def split_v6(keys) -> Tuple[np.ndarray, np.ndarray]:
    """Split 128-bit integer keys into ``(hi, lo)`` uint64 columns."""
    keys = np.asarray(keys, dtype=object)
    hi = (keys >> 64).astype(np.uint64)
    lo = (keys & 0xFFFFFFFFFFFFFFFF).astype(np.uint64)
    return hi, lo


# -- the kernel contract ---------------------------------------------------


class LookupKernel(abc.ABC):
    """One engine's stateless batch-lookup compute.

    A kernel never holds table data.  Its two state builders return the
    same **view state** (a dict of numpy arrays + precomputed scalars):

    - :meth:`prepare` — from an image's ``(meta, segments, width)``,
      with format validation (the attach path);
    - :meth:`state_from_structure` — from a live structure's own
      arrays, trusted (the in-process ``lookup_batch`` path; states are
      rebuilt per call because live arrays may be reallocated by
      updates — image-bound states are built once).

    :meth:`lookup_batch` then computes FIB indices for a batch of keys
    normalized by :func:`~repro.lookup.base.normalize_batch_keys`
    against either state.  Results are lane-for-lane identical to the
    structure's scalar ``lookup`` — the registry-wide oracle test in
    ``tests/test_kernels.py`` enforces it.
    """

    #: Short kernel identifier ("poptrie", "dxr", ...) used in pool
    #: observability labels and stats.
    name: str = "abstract"

    @abc.abstractmethod
    def prepare(self, meta, segments, *, width: int) -> Dict[str, object]:
        """Build a view state from image metadata + segment views.

        Raises :class:`~repro.errors.SnapshotFormatError` when the
        segments are inconsistent with the metadata.
        """

    @abc.abstractmethod
    def state_from_structure(self, structure) -> Dict[str, object]:
        """Build a view state over a live structure's own arrays."""

    @abc.abstractmethod
    def lookup_batch(self, state: Dict[str, object], keys: np.ndarray) -> np.ndarray:
        """Resolve normalized ``keys`` to FIB indices (uint32)."""

    def supports_width(self, width: int) -> bool:
        """Address widths this kernel computes (keys are uint64 lanes)."""
        return width <= 64


# -- registry --------------------------------------------------------------

_KERNELS: Dict[str, LookupKernel] = {}


def register_kernel(class_path: str, kernel: LookupKernel) -> None:
    """Register ``kernel`` for the structure class at ``class_path``
    (the ``"module:QualName"`` form stored in image headers)."""
    if class_path in _KERNELS:
        raise ValueError(f"kernel for {class_path!r} is already registered")
    _KERNELS[class_path] = kernel


def available_kernels() -> Dict[str, str]:
    """``class_path -> kernel name`` for every registered kernel."""
    return {path: kernel.name for path, kernel in _KERNELS.items()}


def kernel_for_class(cls) -> Optional[LookupKernel]:
    """The kernel registered for a structure class (or the nearest
    registered ancestor), or ``None``."""
    for klass in getattr(cls, "__mro__", (cls,)):
        kernel = _KERNELS.get(f"{klass.__module__}:{klass.__qualname__}")
        if kernel is not None:
            return kernel
    return None


def kernel_for(image) -> Optional[LookupKernel]:
    """The kernel that can serve ``image``, or ``None`` (wrong kind,
    unregistered class, or a width outside the kernel's support)."""
    if image.kind != "structure":
        return None
    kernel = _KERNELS.get(image.class_path)
    if kernel is None or not kernel.supports_width(image.width):
        return None
    return kernel


class BoundKernel:
    """A kernel bound to one prepared view state — structure-shaped
    (``lookup`` / ``lookup_batch`` / ``name`` / ``memory_bytes``), so a
    pool worker or server can serve from it without any live
    :class:`~repro.lookup.base.LookupStructure`."""

    def __init__(
        self,
        kernel: LookupKernel,
        state: Dict[str, object],
        *,
        algorithm: str,
        width: int,
        nbytes: int = 0,
    ) -> None:
        self.kernel = kernel
        self.state = state
        self.name = algorithm
        self.width = width
        self.kernel_name = kernel.name
        self._nbytes = nbytes

    def lookup_batch(self, keys) -> np.ndarray:
        from repro.lookup.base import normalize_batch_keys

        return self.kernel.lookup_batch(
            self.state, normalize_batch_keys(keys, self.width)
        )

    def lookup(self, key: int) -> int:
        return int(self.lookup_batch([key])[0])

    def memory_bytes(self) -> int:
        return self._nbytes

    def stats(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": type(self).__name__,
            "kernel": self.kernel_name,
            "width": self.width,
            "memory_bytes": self._nbytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundKernel({self.kernel_name}, {self.name})"


def attach(image) -> BoundKernel:
    """Bind the registered kernel to ``image``'s zero-copy segment
    views.  Works identically over ``bytes``, an ``mmap``, or a
    ``SharedMemory`` buffer — whatever the image was opened on.  Raises
    ``TypeError`` when no registered kernel takes the image's
    class/width."""
    kernel = kernel_for(image)
    if kernel is None:
        raise TypeError(
            f"no lookup kernel registered for {image.class_path!r} "
            f"(width {image.width})"
        )
    segments = {name: image.segment(name) for name in image.segment_names()}
    state = kernel.prepare(image.meta, segments, width=image.width)
    return BoundKernel(
        kernel,
        state,
        algorithm=image.algorithm,
        width=image.width,
        nbytes=image.nbytes,
    )


# -- Poptrie ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _poptrie_plan(width: int, k: int, s: int):
    """Per-(width, k, s) constants: the direct shift, the chunk mask and,
    per trie level, the shifts that cut the chunk out of the key words.

    A key travels as one uint64 column (width ≤ 64) or as ``(hi, lo)``
    columns (width 128).  Algorithm 1 extracts chunk ``i`` from the
    *zero-padded* key at bit offset ``s + k*i``; each level lists one
    ``(column, left?, amount)`` shift per word the chunk overlaps — two
    when it straddles the hi/lo boundary.  Rather than materialize the
    padded key per batch (a full-array pass), the pad folds into a left
    shift for the final, partially-padded chunk.
    """
    word = min(width, 64)
    words = [(first, first + word) for first in range(0, width, word)]
    levels = []
    for offset in range(s, width, k):
        end = offset + k
        levels.append(tuple(
            (column, end > last, np.uint64(abs(end - last)))
            for column, (first, last) in enumerate(words)
            if first < end and offset < last
        ))
    return np.uint64(word - s), np.uint64((1 << k) - 1), tuple(levels)


class PoptrieKernel(LookupKernel):
    """Poptrie (Algorithms 1–3) as pure index arithmetic.

    Stage 1 (direct pointing): one gather into the 2^s array; the MSB
    tag is stripped in place — leaf lanes are then *final* in the result
    array, and node lanes are compacted into an active set.  Stage 2
    walks the active lanes one trie level per iteration: gather vectors,
    test the chunk bit, popcount the masked vector/leafvec, and either
    scatter resolved leaves into the result or advance ``base1 +
    popcount - 1``.  When no active lane descends further — the common
    case at the first level with real tables — the level resolves in a
    single unsplit pass.

    128-bit keys descend as two columns, ``(hi, lo)``: the direct index
    comes from ``hi``, and the per-level plan names the word (or, for a
    chunk straddling bit 64, both words) each chunk is cut from.
    """

    name = "poptrie"

    def supports_width(self, width: int) -> bool:
        return width <= 64 or width == 128

    def prepare(self, meta, segments, *, width: int) -> Dict[str, object]:
        from repro.errors import SnapshotFormatError

        try:
            k = int(meta["k"])
            s = int(meta["s"])
            use_leafvec = bool(meta["use_leafvec"])
            leaf_bits = int(meta["leaf_bits"])
            root = int(meta["root_index"])
            node_count = int(meta["node_count"])
            leaf_count = int(meta["leaf_count"])
            vec, lvec = segments["vec"], segments["lvec"]
            base0, base1 = segments["base0"], segments["base1"]
            leaves, direct = segments["leaves"], segments["direct"]
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotFormatError(
                f"invalid poptrie image: {error}"
            ) from error
        if (
            not 1 <= k <= 6
            or not 0 <= s <= min(width, 64)
            or leaf_bits not in (16, 32)
            or len(vec) != node_count
            or len(lvec) != node_count
            or len(base0) != node_count
            or len(base1) != node_count
            or len(leaves) != leaf_count
            or leaves.itemsize != leaf_bits // 8
            or len(direct) != ((1 << s) if s else 0)
        ):
            raise SnapshotFormatError(
                "poptrie image segments inconsistent with header"
            )
        return self._state(
            width, k, s, use_leafvec, root,
            vec, lvec, base0, base1, leaves, direct,
        )

    def state_from_structure(self, trie) -> Dict[str, object]:
        # Every attribute is read before the first call (see Poptrie.lookup).
        config, root, vec, lvec = trie.config, trie.root_index, trie.vec, trie.lvec
        base0, base1, leaves, direct = trie.base0, trie.base1, trie.leaves, trie.direct
        leaf_dtype = np.uint16 if config.leaf_bits == 16 else np.uint32
        return self._state(
            trie.width,
            config.k,
            config.s,
            config.use_leafvec,
            root,
            np.frombuffer(vec, dtype=np.uint64),
            np.frombuffer(lvec, dtype=np.uint64),
            np.frombuffer(base0, dtype=np.uint32),
            np.frombuffer(base1, dtype=np.uint32),
            np.frombuffer(leaves, dtype=leaf_dtype),
            np.frombuffer(direct, dtype=np.uint32),
        )

    @staticmethod
    def _state(width, k, s, use_leafvec, root,
               vec, lvec, base0, base1, leaves, direct):
        dshift, kmask, levels = _poptrie_plan(width, k, s)
        return {
            "wide": width > 64,
            "s": s,
            "root": root,
            "use_leafvec": use_leafvec,
            "dshift": dshift,
            "kmask": kmask,
            "levels": levels,
            "vec": np.asarray(vec),
            "lvec": np.asarray(lvec),
            "base0": np.asarray(base0),
            "base1": np.asarray(base1),
            "leaves": np.asarray(leaves),
            "direct": np.asarray(direct),
        }

    def lookup_batch(self, state, keys: np.ndarray) -> np.ndarray:
        n = keys.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.uint32)
        cols = split_v6(keys) if state["wide"] else (keys,)
        vec = state["vec"]
        lvec = state["lvec"]
        base0 = state["base0"]
        base1 = state["base1"]
        leaves = state["leaves"]
        kmask = state["kmask"]
        use_leafvec = state["use_leafvec"]

        if state["s"]:
            # Stage 1: one gather resolves every direct-leaf lane.  The
            # uint64→int64 index cast is a zero-copy reinterpretation
            # (indices are < 2^s).  Stripping the tag bit in place is
            # safe: the tag is only ever set on leaf entries, so node
            # indices pass through unchanged.
            idx = (cols[0] >> state["dshift"]).view(np.int64)
            entries = state["direct"].take(idx)
            active = np.flatnonzero(entries < np.uint32(_DIRECT_LEAF))
            np.bitwise_and(entries, _NODE_MASK32, out=entries)
            result = entries
            if active.size == 0:
                return result
            index = entries.take(active).astype(np.int64)
            cols = [col.take(active) for col in cols]
        else:
            result = np.zeros(n, dtype=np.uint32)
            active = np.arange(n, dtype=np.int64)
            index = np.full(n, state["root"], dtype=np.int64)

        # Stage 2: all still-active lanes descend one level per
        # iteration.  A valid trie terminates every lane within the
        # planned levels (the final level's vectors carry no descend
        # bits by construction).
        for terms in state["levels"]:
            v = None
            for column, left, sh in terms:
                part = (cols[column] << sh) if left else (cols[column] >> sh)
                v = part if v is None else v | part
            v &= kmask
            vectors = vec.take(index)
            descend = ((vectors >> v) & _ONE64) != 0
            mask = _FULL64 >> (_SIXTY3 - v)
            if not descend.any():
                # Whole active set resolves here: one unsplit pass.
                if use_leafvec:
                    bits = lvec.take(index) & mask
                else:
                    bits = ~vectors & mask
                leaf = (base0.take(index) + popcount64(bits)).astype(
                    np.int64
                ) - 1
                result[active] = leaves.take(leaf)
                return result
            if not descend.all():
                done = np.flatnonzero(~descend)
                done_index = index.take(done)
                if use_leafvec:
                    bits = lvec.take(done_index) & mask.take(done)
                else:
                    bits = ~vectors.take(done) & mask.take(done)
                leaf = (base0.take(done_index) + popcount64(bits)).astype(
                    np.int64
                ) - 1
                result[active.take(done)] = leaves.take(leaf)
                going = np.flatnonzero(descend)
                active = active.take(going)
                cols = [col.take(going) for col in cols]
                bc = popcount64(vectors.take(going) & mask.take(going))
                index = (base1.take(index.take(going)) + bc).astype(
                    np.int64
                ) - 1
            else:
                bc = popcount64(vectors & mask)
                index = (base1.take(index) + bc).astype(np.int64) - 1
        raise ValueError(
            "poptrie walk exceeded the padded key width (corrupt table)"
        )


# -- DIR-24-8 --------------------------------------------------------------


class Dir24_8Kernel(LookupKernel):
    """DIR-24-8-BASIC: one gather for /24 hits, a compacted second
    gather into the 256-entry chunks for the long-prefix lanes."""

    name = "dir24-8"

    def prepare(self, meta, segments, *, width: int) -> Dict[str, object]:
        from repro.errors import SnapshotFormatError

        try:
            tbl24, tbl_long = segments["tbl24"], segments["tbl_long"]
        except KeyError as error:
            raise SnapshotFormatError(
                f"DIR-24-8 image lacks segment {error}"
            ) from error
        if len(tbl24) != 1 << 24 or tbl24.itemsize != 2 or tbl_long.itemsize != 2:
            raise SnapshotFormatError("DIR-24-8 image segments malformed")
        return {"tbl24": np.asarray(tbl24), "tbl_long": np.asarray(tbl_long)}

    def state_from_structure(self, structure) -> Dict[str, object]:
        return {
            "tbl24": np.frombuffer(structure.tbl24, dtype=np.uint16),
            "tbl_long": np.frombuffer(structure.tbl_long, dtype=np.uint16),
        }

    def supports_width(self, width: int) -> bool:
        return width == 32

    def lookup_batch(self, state, keys: np.ndarray) -> np.ndarray:
        if keys.shape[0] == 0:
            return np.empty(0, dtype=np.uint32)
        entries = state["tbl24"].take((keys >> np.uint64(8)).view(np.int64))
        result = entries.astype(np.uint32)
        deep = np.flatnonzero(entries >= np.uint16(_CHUNK_FLAG16))
        if deep.size:
            chunk = entries.take(deep).astype(np.int64) & (_CHUNK_FLAG16 - 1)
            low = (keys.take(deep) & np.uint64(0xFF)).view(np.int64)
            result[deep] = state["tbl_long"].take((chunk << 8) | low)
        return result


# -- SAIL ------------------------------------------------------------------


class SailKernel(LookupKernel):
    """SAIL_L: levels 16/24/32 as successive compacted gathers.  Chunk
    identifiers are 1-based 15-bit BCN values, exactly as the scalar
    path reads them."""

    name = "sail"

    def prepare(self, meta, segments, *, width: int) -> Dict[str, object]:
        from repro.errors import SnapshotFormatError

        try:
            bcn16, bcn24, n32 = (
                segments["bcn16"], segments["bcn24"], segments["n32"]
            )
        except KeyError as error:
            raise SnapshotFormatError(
                f"SAIL image lacks segment {error}"
            ) from error
        if len(bcn16) != 1 << 16 or any(
            seg.itemsize != 2 for seg in (bcn16, bcn24, n32)
        ):
            raise SnapshotFormatError("SAIL image segments malformed")
        return {
            "bcn16": np.asarray(bcn16),
            "bcn24": np.asarray(bcn24),
            "n32": np.asarray(n32),
        }

    def state_from_structure(self, structure) -> Dict[str, object]:
        return {
            "bcn16": np.frombuffer(structure.bcn16, dtype=np.uint16),
            "bcn24": np.frombuffer(structure.bcn24, dtype=np.uint16),
            "n32": np.frombuffer(structure.n32, dtype=np.uint16),
        }

    def supports_width(self, width: int) -> bool:
        return width == 32

    def lookup_batch(self, state, keys: np.ndarray) -> np.ndarray:
        if keys.shape[0] == 0:
            return np.empty(0, dtype=np.uint32)
        flag = np.uint16(_CHUNK_FLAG16)
        entries = state["bcn16"].take((keys >> np.uint64(16)).view(np.int64))
        result = entries.astype(np.uint32)
        deep = np.flatnonzero(entries >= flag)
        if deep.size:
            dkeys = keys.take(deep)
            ident = (
                entries.take(deep).astype(np.int64) & (_CHUNK_FLAG16 - 1)
            ) - 1
            mid = ((dkeys >> np.uint64(8)) & np.uint64(0xFF)).view(np.int64)
            entries24 = state["bcn24"].take((ident << 8) | mid)
            result[deep] = entries24
            deeper = np.flatnonzero(entries24 >= flag)
            if deeper.size:
                ident32 = (
                    entries24.take(deeper).astype(np.int64)
                    & (_CHUNK_FLAG16 - 1)
                ) - 1
                low = (dkeys.take(deeper) & np.uint64(0xFF)).view(np.int64)
                result[deep.take(deeper)] = state["n32"].take(
                    (ident32 << 8) | low
                )
        return result


# -- DXR (D16R / D18R) -----------------------------------------------------


class DxrKernel(LookupKernel):
    """DXR: one gather for direct chunks, one ``searchsorted`` over the
    globally-sorted range keys for the rest.

    The sorted probe column is *derived* at prepare time (the documented
    exception to compute-on-segments-as-is): ranges are appended in
    chunk order at build time, so ``(chunk << offset_bits) | start`` is
    globally sorted, and the whole binary-search stage collapses to a
    single vectorized ``np.searchsorted``.
    """

    name = "dxr"

    def prepare(self, meta, segments, *, width: int) -> Dict[str, object]:
        from repro.errors import SnapshotFormatError

        try:
            s = int(meta["s"])
            table = segments["table"]
            starts = segments["starts"]
            nexthops = segments["nexthops"]
            chunk_count = segments["chunk_count"]
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotFormatError(f"invalid DXR image: {error}") from error
        if (
            len(table) != 1 << s
            or table.itemsize != 4
            or len(nexthops) != len(starts)
            or nexthops.itemsize != 2
            or len(chunk_count) != 1 << s
        ):
            raise SnapshotFormatError("DXR image segments inconsistent")
        counts = np.asarray(chunk_count).astype(np.int64)
        if int(counts.sum()) != len(starts):
            raise SnapshotFormatError("DXR chunk counts disagree with ranges")
        chunk_of = np.repeat(
            np.arange(1 << s, dtype=np.uint64), counts
        )
        gkeys = (chunk_of << np.uint64(width - s)) | np.asarray(starts)
        return {
            "offset_bits": np.uint64(width - s),
            "table": np.asarray(table),
            "gkeys": gkeys,
            "gnh": np.asarray(nexthops),
        }

    def state_from_structure(self, structure) -> Dict[str, object]:
        # The live structure precomputes the same sorted columns in its
        # constructor; reuse them rather than re-deriving per batch.  A
        # table with no range chunks has no columns at all — every lane
        # resolves in the direct stage, so empty arrays are never probed.
        gkeys = structure._gkeys
        if gkeys is None:
            gkeys = np.empty(0, dtype=np.uint64)
            gnh = np.empty(0, dtype=np.uint16)
        else:
            gnh = structure._gnh
        return {
            "offset_bits": np.uint64(structure.offset_bits),
            "table": np.frombuffer(structure.table, dtype=np.uint32),
            "gkeys": gkeys,
            "gnh": gnh,
        }

    def supports_width(self, width: int) -> bool:
        return width == 32

    def lookup_batch(self, state, keys: np.ndarray) -> np.ndarray:
        if keys.shape[0] == 0:
            return np.empty(0, dtype=np.uint32)
        entries = state["table"].take(
            (keys >> state["offset_bits"]).view(np.int64)
        )
        result = entries & np.uint32(_DXR_DIRECT - 1)
        deep = np.flatnonzero(entries < np.uint32(_DXR_DIRECT))
        if deep.size:
            # gkey == the key itself: (chunk << offset_bits) | offset.
            index = np.searchsorted(
                state["gkeys"], keys.take(deep), side="right"
            ) - 1
            result[deep] = state["gnh"].take(index)
        return result


# -- built-in registrations ------------------------------------------------

register_kernel("repro.core.poptrie:Poptrie", PoptrieKernel())
register_kernel("repro.lookup.dir24_8:Dir24_8", Dir24_8Kernel())
register_kernel("repro.lookup.sail:Sail", SailKernel())
register_kernel("repro.lookup.dxr:Dxr", DxrKernel())
