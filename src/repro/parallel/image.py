"""`TableImage`: a versioned, checksummed, zero-copy export of a table.

The paper's multicore scaling argument (Section 4.5, Figure 8) rests on
the lookup arrays being immutable and compact: once compiled, a Poptrie
is just a handful of flat typed arrays that any number of cores can read
concurrently.  This module makes that property operational.  A
:class:`TableImage` freezes the backing arrays of any structure that
implements the :meth:`~repro.lookup.base.LookupStructure.to_image` hook
into one self-describing buffer that can be written to disk, shipped
over a socket, or — the point — placed in
:mod:`multiprocessing.shared_memory` and *attached* by worker processes
without copying a byte (:mod:`repro.parallel.pool`).

Image format (``RPIMG001``, little-endian)::

    magic     8 bytes   b"RPIMG001"
    hlen      u32       byte length of the JSON header
    reserved  u32       zero
    header    hlen      canonical JSON (sorted keys, compact separators)
    pad       –         zeros to the first 64-byte boundary
    segments  –         raw arrays, each starting on a 64-byte boundary
    crc32     u32       CRC-32 over everything above

The JSON header carries ``format`` (version), ``kind`` (``"structure"``
or ``"rib"``), ``class`` (``module:QualName`` of the structure), the
registry ``algorithm`` name, the address ``width``, a structure-specific
``meta`` dict of scalars, the ``segments`` table (name, dtype, count,
offset, nbytes per segment) and the total image ``nbytes``.  The header
is serialized canonically, so equal tables produce byte-identical images
— :meth:`TableImage.fingerprint` is a usable table identity.

Segments start on 64-byte boundaries so that attached numpy views are
cache-line aligned, matching the alignment story told in
``repro.mem.layout``.

This module is also the persistence surface: :func:`save_structure` /
:func:`load_structure` write and read compiled tables as ``RPIMG001``
images, the one snapshot format.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import struct
import zlib
from array import array
from typing import BinaryIO, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import SnapshotFormatError

MAGIC = b"RPIMG001"
FORMAT_VERSION = 1

#: Segment alignment: one x86 cache line, so attached views never split
#: their first element across lines.
SEGMENT_ALIGN = 64

_PREAMBLE = struct.Struct("<8sII")
_CRC = struct.Struct("<I")

#: ``array.array`` typecodes appear in image segments as unsigned numpy
#: dtypes of the same width (all backing arrays in this library are
#: unsigned).  Single-byte dtypes spell their (irrelevant) byte order
#: ``"|"``, so ``u1`` appears under both spellings.
_DTYPE_ALLOWED = frozenset({"|u1", "<u1", "<u2", "<u4", "<u8"})


def _align(offset: int) -> int:
    return (offset + SEGMENT_ALIGN - 1) & ~(SEGMENT_ALIGN - 1)


def _as_segment_array(name: str, values) -> np.ndarray:
    """Normalize a backing array to a contiguous little-endian ndarray."""
    if isinstance(values, array):
        out = np.frombuffer(values, dtype=np.dtype(f"<u{values.itemsize}"))
    else:
        out = np.ascontiguousarray(values)
    if out.ndim != 1:
        raise TypeError(f"segment {name!r} must be one-dimensional")
    if out.dtype.str not in _DTYPE_ALLOWED:
        raise TypeError(
            f"segment {name!r} has unsupported dtype {out.dtype.str!r}"
        )
    return out


def _canonical_header(header: Mapping[str, object]) -> bytes:
    return json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("ascii")


class TableImage:
    """One frozen table: a JSON header plus cache-line-aligned segments.

    Build one from live arrays with :meth:`build` (usually via
    ``structure.to_image()``), or attach to an existing serialized image
    — bytes, mmap, or a shared-memory buffer — with :meth:`open`, which
    parses the header and exposes each segment as a read-only numpy view
    into the *original* buffer: opening an image never copies segment
    data.
    """

    def __init__(
        self,
        header: Dict[str, object],
        segments: Dict[str, np.ndarray],
        buffer: Optional[memoryview] = None,
    ) -> None:
        self._header = header
        self._segments = segments
        #: The serialized buffer this image was opened over (None for
        #: freshly built images until :meth:`to_bytes` is called).
        self._buffer = buffer

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        *,
        kind: str,
        algorithm: str,
        width: int,
        meta: Mapping[str, object],
        segments: Mapping[str, object],
        class_path: str = "",
    ) -> "TableImage":
        """Assemble an image from live backing arrays.

        ``segments`` maps names to ``array.array`` or numpy arrays; each
        is normalized to a contiguous little-endian unsigned array.
        ``meta`` must be JSON-scalar only — it travels in the header.
        """
        arrays: Dict[str, np.ndarray] = {}
        specs: List[Dict[str, object]] = []
        for name, values in segments.items():
            arrays[name] = _as_segment_array(name, values)

        # Two-pass layout: header length depends on the offsets, which
        # depend on the header length.  Iterate until stable (the JSON
        # integer widths converge within two rounds).
        header: Dict[str, object] = {
            "format": FORMAT_VERSION,
            "kind": kind,
            "class": class_path,
            "algorithm": algorithm,
            "width": int(width),
            "meta": dict(meta),
            "segments": specs,
            "nbytes": 0,
        }
        hlen = 0
        for _ in range(4):
            specs.clear()
            offset = _align(_PREAMBLE.size + hlen)
            for name, arr in arrays.items():
                specs.append(
                    {
                        "name": name,
                        "dtype": arr.dtype.str,
                        "count": int(arr.size),
                        "offset": offset,
                        "nbytes": int(arr.nbytes),
                    }
                )
                offset = _align(offset + arr.nbytes)
            header["nbytes"] = offset + _CRC.size
            encoded = _canonical_header(header)
            if len(encoded) == hlen:
                break
            hlen = len(encoded)
        else:  # pragma: no cover - layout always converges
            raise AssertionError("image header layout did not converge")
        return cls(header, arrays)

    @classmethod
    def open(cls, buffer, *, verify: bool = True) -> "TableImage":
        """Attach to a serialized image without copying segment data.

        ``buffer`` is anything supporting the buffer protocol — bytes, a
        ``mmap``, or ``SharedMemory.buf``.  Trailing slack beyond the
        image's recorded ``nbytes`` is ignored (shared-memory segments
        are page-rounded).  ``verify=True`` (default) checks the CRC over
        the whole image; attach-side callers that already trust the
        buffer (workers attaching to a parent-written segment) may skip
        it.
        """
        view = memoryview(buffer)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        if len(view) < _PREAMBLE.size + _CRC.size:
            raise SnapshotFormatError("image truncated")
        magic, hlen, reserved = _PREAMBLE.unpack_from(view, 0)
        if magic != MAGIC:
            raise SnapshotFormatError("bad image magic")
        if reserved:
            raise SnapshotFormatError("reserved image field is non-zero")
        header_end = _PREAMBLE.size + hlen
        if header_end + _CRC.size > len(view):
            raise SnapshotFormatError("image truncated in header")
        try:
            header = json.loads(bytes(view[_PREAMBLE.size:header_end]))
        except ValueError as error:
            raise SnapshotFormatError(
                f"unparseable image header: {error}"
            ) from error
        if not isinstance(header, dict):
            raise SnapshotFormatError("image header is not an object")
        if header.get("format") != FORMAT_VERSION:
            raise SnapshotFormatError(
                f"unsupported image format version {header.get('format')!r}"
            )
        total = header.get("nbytes")
        if (
            not isinstance(total, int)
            or total < header_end + _CRC.size
            or total > len(view)
        ):
            raise SnapshotFormatError("image truncated (bad total size)")
        if verify:
            (stored,) = _CRC.unpack_from(view, total - _CRC.size)
            if zlib.crc32(view[: total - _CRC.size]) != stored:
                raise SnapshotFormatError("image CRC mismatch")

        specs = header.get("segments")
        if not isinstance(specs, list):
            raise SnapshotFormatError("image header lacks a segment table")
        segments: Dict[str, np.ndarray] = {}
        for spec in specs:
            try:
                name = spec["name"]
                dtype = np.dtype(spec["dtype"])
                count = spec["count"]
                offset = spec["offset"]
                nbytes = spec["nbytes"]
            except (TypeError, KeyError, ValueError) as error:
                raise SnapshotFormatError(
                    f"malformed segment spec: {error}"
                ) from error
            if dtype.str not in _DTYPE_ALLOWED:
                raise SnapshotFormatError(
                    f"segment {name!r} has unsupported dtype {dtype.str!r}"
                )
            if (
                not isinstance(count, int)
                or not isinstance(offset, int)
                or count < 0
                or offset < header_end
                or count * dtype.itemsize != nbytes
                or offset + nbytes > total - _CRC.size
            ):
                raise SnapshotFormatError(
                    f"segment {name!r} overflows the image"
                )
            arr = np.frombuffer(
                view[offset : offset + nbytes], dtype=dtype, count=count
            )
            arr.flags.writeable = False
            segments[name] = arr
        return cls(header, segments, buffer=view)

    # -- introspection ---------------------------------------------------

    @property
    def kind(self) -> str:
        return str(self._header.get("kind", ""))

    @property
    def class_path(self) -> str:
        return str(self._header.get("class", ""))

    @property
    def algorithm(self) -> str:
        return str(self._header.get("algorithm", ""))

    @property
    def width(self) -> int:
        return int(self._header.get("width", 32))

    @property
    def meta(self) -> Dict[str, object]:
        return dict(self._header.get("meta", {}))

    @property
    def nbytes(self) -> int:
        """Total serialized size, including header, padding and CRC."""
        return int(self._header["nbytes"])

    def segment_names(self) -> List[str]:
        return list(self._segments)

    def segment(self, name: str) -> np.ndarray:
        """The named segment as a numpy array (read-only when attached)."""
        try:
            return self._segments[name]
        except KeyError:
            raise SnapshotFormatError(
                f"image has no segment {name!r}"
            ) from None

    def header(self) -> Dict[str, object]:
        """A copy of the parsed JSON header."""
        return json.loads(_canonical_header(self._header))

    def fingerprint(self) -> str:
        """SHA-256 over the canonical header and every segment's bytes.

        Stable across build → serialize → open: two images fingerprint
        equal iff their headers and segment contents are identical.
        """
        digest = hashlib.sha256(_canonical_header(self._header))
        for arr in self._segments.values():
            digest.update(np.ascontiguousarray(arr).data)
        return digest.hexdigest()

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to one ``bytes`` blob (buffer-protocol object)."""
        out = bytearray(self.nbytes)
        self.write_into(out)
        return bytes(out)

    def write_into(self, buffer) -> int:
        """Serialize directly into a writable buffer (e.g. shared memory).

        Returns the number of bytes written (== :attr:`nbytes`); the
        buffer may be larger.
        """
        view = memoryview(buffer)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        total = self.nbytes
        if len(view) < total:
            raise ValueError(
                f"buffer holds {len(view)} bytes, image needs {total}"
            )
        encoded = _canonical_header(self._header)
        _PREAMBLE.pack_into(view, 0, MAGIC, len(encoded), 0)
        end = _PREAMBLE.size + len(encoded)
        view[_PREAMBLE.size:end] = encoded
        view[end:_align(end)] = bytes(_align(end) - end)
        for spec in self._header["segments"]:
            arr = self._segments[spec["name"]]
            offset = spec["offset"]
            stop = offset + spec["nbytes"]
            view[offset:stop] = np.ascontiguousarray(arr).data.cast("B")
            pad_stop = min(_align(stop), total - _CRC.size)
            view[stop:pad_stop] = bytes(pad_stop - stop)
        _CRC.pack_into(view, total - _CRC.size, zlib.crc32(view[: total - _CRC.size]))
        return total


# -- the blessed persistence surface ------------------------------------


def image_to_structure(image: TableImage, *, copy: bool = True):
    """Reconstruct the structure an image was exported from.

    ``copy=True`` (persistence): the structure owns fresh, fully mutable
    arrays — equivalent to the historical snapshot ``load``.
    ``copy=False`` (data plane): the structure wraps read-only views into
    the image's buffer — zero-copy, frozen, exactly what pool workers
    attach to.
    """
    from repro.lookup.base import LookupStructure

    if image.kind != "structure":
        raise SnapshotFormatError(
            f"image holds a {image.kind or 'unknown'!s} payload, "
            "not a lookup structure"
        )
    module_name, _, qualname = image.class_path.partition(":")
    if not module_name or not qualname:
        raise SnapshotFormatError(
            f"image names no structure class ({image.class_path!r})"
        )
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as error:
        raise SnapshotFormatError(
            f"image references unknown class {image.class_path!r}: {error}"
        ) from error
    if not (isinstance(obj, type) and issubclass(obj, LookupStructure)):
        raise SnapshotFormatError(
            f"{image.class_path!r} is not a lookup structure"
        )
    return obj.from_image(image, copy=copy)


def structure_to_bytes(structure) -> bytes:
    """Serialize any image-capable structure to an ``RPIMG001`` blob."""
    return structure.to_image().to_bytes()


def structure_from_bytes(blob: bytes, *, copy: bool = True):
    """Load a structure from an ``RPIMG001`` blob."""
    if blob[: len(MAGIC)] != MAGIC:
        raise SnapshotFormatError("bad magic")
    return image_to_structure(TableImage.open(blob), copy=copy)


def save_structure(structure, destination: Union[str, BinaryIO]) -> int:
    """Write a structure snapshot to a path or stream; returns byte count.

    The one snapshot writer.  Passes the blob through the ``snapshot``
    fault-injection point so an armed
    :class:`~repro.robust.faults.FaultPlan` with ``truncate_snapshot``
    models a torn write.
    """
    from repro.robust import faults

    blob = faults.mangle_snapshot(structure_to_bytes(structure))
    if isinstance(destination, str):
        with open(destination, "wb") as stream:
            stream.write(blob)
    else:
        destination.write(blob)
    return len(blob)


def load_structure(source: Union[str, BinaryIO], *, copy: bool = True):
    """Read an ``RPIMG001`` structure snapshot from a path or stream."""
    if isinstance(source, str):
        with open(source, "rb") as stream:
            return structure_from_bytes(stream.read(), copy=copy)
    return structure_from_bytes(source.read(), copy=copy)

