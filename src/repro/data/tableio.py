"""Routing-table snapshot I/O.

Two on-disk representations of a RIB:

- A plain text format, one route per line::

      # repro-table v1 width=32
      192.0.2.0/24 7
      10.0.0.0/8 3

  The integer after the prefix is the FIB index.  Comments (``#``) and
  blank lines are ignored; the header pins the address family.  The
  format exists so experiments can be frozen to disk and reloaded (the
  paper works from RouteViews MRT archives; a full MRT parser would add
  nothing to the algorithms under study, so snapshots use this
  transparent format instead).

  A RIB with an attached :class:`~repro.net.values.ValueTable` writes it
  as comment directives right after the header::

      # repro-values kind=cc count=2
      # v 1 CN
      # v 2 US

  Deliberately comment-shaped: pre-value-plane parsers skip ``#`` lines,
  so valued snapshots stay loadable everywhere (the values are simply
  dropped there), while this parser rebuilds the table and attaches it
  to the returned RIB.

- The binary ``RPIMG001`` image format of :mod:`repro.parallel.image`
  (:func:`rib_to_image` / :func:`rib_from_image` /
  :func:`save_table_image`) — the persistence surface shared
  with compiled lookup structures.  Journal checkpoints use it; it is
  checksummed and typically an order of magnitude faster to parse.

:func:`load_table` accepts either: given a path it sniffs the image
magic and dispatches, so readers never need to know which format a
snapshot was written in.
"""

from __future__ import annotations

from typing import BinaryIO, Iterator, TextIO, Union

import numpy as np

from repro.errors import SnapshotFormatError, TableFormatError
from repro.net.prefix import Prefix
from repro.net.rib import MAX_FIB_INDEX as _MAX_FIB_INDEX
from repro.net.rib import Rib

_HEADER = "# repro-table v1 width="
_VALUES_HEADER = "# repro-values "
_VALUE_LINE = "# v "

_MASK64 = (1 << 64) - 1


def save_table(rib: Rib, destination: Union[str, TextIO]) -> int:
    """Write ``rib`` as text; returns the number of routes written."""
    owned = isinstance(destination, str)
    stream = open(destination, "w") if owned else destination
    try:
        stream.write(f"{_HEADER}{rib.width}\n")
        if rib.values is not None:
            values = rib.values
            codec = values.codec
            stream.write(
                f"{_VALUES_HEADER}kind={values.kind} count={len(values)}\n"
            )
            for index, value in enumerate(values, start=1):
                stream.write(f"{_VALUE_LINE}{index} {codec.format(value)}\n")
        count = 0
        for prefix, fib_index in rib.routes():
            stream.write(f"{prefix.text} {fib_index}\n")
            count += 1
        return count
    finally:
        if owned:
            stream.close()


def load_table(source: Union[str, TextIO]) -> Rib:
    """Read a table written by :func:`save_table` or :func:`save_table_image`.

    Given a path, the binary ``RPIMG001`` image magic is sniffed first and
    the snapshot dispatched to :func:`rib_from_image`; anything else is
    parsed as the text format (stream inputs are always text).  Every
    malformed input — missing or bad header, unparseable route line,
    out-of-range FIB index, prefix from the wrong address family — raises
    :class:`~repro.errors.TableFormatError`; for text inputs it carries
    the 1-based line number of the offending input, so a bad feed is
    diagnosable instead of surfacing as a bare ``ValueError`` /
    ``IndexError`` from the internals.
    """
    if isinstance(source, str):
        from repro.parallel.image import MAGIC

        with open(source, "rb") as probe:
            head = probe.read(len(MAGIC))
        if head == MAGIC:
            return _load_table_image(source)
        with open(source, "r") as stream:
            try:
                return _parse_table(stream)
            except UnicodeDecodeError as exc:
                raise TableFormatError(
                    f"binary data in text snapshot: {exc}"
                ) from exc
    return _parse_table(source)


def _parse_table(stream: TextIO) -> Rib:
    first = stream.readline()
    if not first.startswith(_HEADER):
        raise TableFormatError(
            "not a repro-table snapshot (missing header)", line=1
        )
    try:
        width = int(first[len(_HEADER):].strip())
    except ValueError as exc:
        raise TableFormatError(
            f"bad width in header {first.strip()!r}", line=1
        ) from exc
    if width not in (32, 128):
        raise TableFormatError(
            f"unsupported address width {width} (expected 32 or 128)", line=1
        )
    rib = Rib(width=width)
    for line_no, line in enumerate(stream, start=2):
        line = line.strip()
        if line.startswith(_VALUES_HEADER) or line.startswith(_VALUE_LINE):
            _parse_value_line(rib, line, line_no)
            continue
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise TableFormatError(
                f"expected 'prefix fib-index', got {line!r}", line=line_no
            )
        prefix_text, fib_text = fields
        try:
            prefix = Prefix.parse(prefix_text)
        except ValueError as exc:
            raise TableFormatError(
                f"bad prefix {prefix_text!r}: {exc}", line=line_no
            ) from exc
        if prefix.width != width:
            raise TableFormatError(
                f"prefix {prefix_text!r} is /{prefix.width} in a "
                f"width={width} table",
                line=line_no,
            )
        try:
            fib_index = int(fib_text)
        except ValueError as exc:
            raise TableFormatError(
                f"bad FIB index {fib_text!r}", line=line_no
            ) from exc
        if not 1 <= fib_index <= _MAX_FIB_INDEX:
            raise TableFormatError(
                f"FIB index {fib_index} outside 1..{_MAX_FIB_INDEX}",
                line=line_no,
            )
        rib.insert(prefix, fib_index)
    return rib


def _parse_value_line(rib: Rib, line: str, line_no: int) -> None:
    """One ``# repro-values`` / ``# v`` directive (see the module doc)."""
    from repro.net.values import ValueTable

    if line.startswith(_VALUES_HEADER):
        if rib.values is not None:
            raise TableFormatError(
                "duplicate repro-values directive", line=line_no
            )
        fields = dict(
            part.split("=", 1)
            for part in line[len(_VALUES_HEADER):].split()
            if "=" in part
        )
        try:
            rib.values = ValueTable(kind=fields["kind"])
        except (KeyError, ValueError) as exc:
            raise TableFormatError(
                f"bad repro-values directive {line!r}: {exc}", line=line_no
            ) from exc
        return
    if rib.values is None:
        raise TableFormatError(
            "value line before the repro-values directive", line=line_no
        )
    fields = line[len(_VALUE_LINE):].split(maxsplit=1)
    if len(fields) != 2:
        raise TableFormatError(
            f"expected '# v <id> <value>', got {line!r}", line=line_no
        )
    try:
        declared = int(fields[0])
        assigned = rib.values.intern(rib.values.codec.parse(fields[1]))
    except (ValueError, TypeError, OverflowError) as exc:
        raise TableFormatError(
            f"bad value line {line!r}: {exc}", line=line_no
        ) from exc
    if assigned != declared:
        raise TableFormatError(
            f"value id {declared} does not match interning order "
            f"(got {assigned}); ids must be dense and ascending from 1",
            line=line_no,
        )


# ---------------------------------------------------------------------------
# the binary image surface (RPIMG001 — shared with repro.parallel.image)
# ---------------------------------------------------------------------------


def rib_to_image(rib: Rib):
    """Freeze ``rib`` as a ``kind="rib"`` :class:`~repro.parallel.image.TableImage`.

    Routes are stored as four parallel segments — the prefix value split
    into 64-bit halves (IPv6-capable), the prefix length, and the FIB
    index — in the RIB's lexicographic iteration order, which makes the
    image (and therefore its fingerprint) a deterministic function of the
    table's contents.
    """
    from repro.parallel.image import TableImage

    value_hi, value_lo, lengths, fib_indices = rib.route_columns()
    meta = {"routes": len(lengths)}
    segments = {
        "value_hi": value_hi,
        "value_lo": value_lo,
        "length": lengths,
        "fib": fib_indices,
    }
    if rib.values is not None:
        # Same convention as structure images (repro.lookup.base): the
        # side-table travels under the "values/" segment prefix plus one
        # meta key; pre-value-plane readers select segments by name and
        # never see it.
        vmeta, vsegs = rib.values.to_segments()
        meta["values"] = vmeta
        for name, arr in vsegs.items():
            segments[f"values/{name}"] = arr
    return TableImage.build(
        kind="rib",
        algorithm="rib",
        width=rib.width,
        meta=meta,
        segments=segments,
    )


def rib_from_image(image) -> Rib:
    """Rebuild a :class:`~repro.net.rib.Rib` from a ``kind="rib"`` image.

    Rows may come in any order: they are validated with numpy, sorted
    into preorder and streamed to :meth:`~repro.net.rib.Rib.load_sorted`,
    which creates each radix node once.  Of duplicate rows the last
    wins, as with repeated :meth:`~repro.net.rib.Rib.insert`.

    Malformed images — wrong kind, unsupported width, inconsistent or
    missing segments, out-of-range routes — raise
    :class:`~repro.errors.TableFormatError` (the table-snapshot error
    contract), never a bare exception from the internals; of several bad
    rows, the first in file order is reported.
    """
    if image.kind != "rib":
        raise TableFormatError(
            f"image holds a {image.kind!r}, not a routing table"
        )
    width = image.width
    if width not in (32, 128):
        raise TableFormatError(
            f"unsupported address width {width} (expected 32 or 128)"
        )
    try:
        value_hi = image.segment("value_hi")
        value_lo = image.segment("value_lo")
        length = image.segment("length")
        fib = image.segment("fib")
    except SnapshotFormatError as exc:
        raise TableFormatError(str(exc)) from exc
    if not len(value_hi) == len(value_lo) == len(length) == len(fib):
        raise TableFormatError("rib image segments have mismatched lengths")
    values = None
    vmeta = image.meta.get("values")
    if vmeta is not None:
        from repro.net.values import ValueTable

        vsegs = {
            name[len("values/"):]: image.segment(name)
            for name in image.segment_names()
            if name.startswith("values/")
        }
        try:
            values = ValueTable.from_segments(vmeta, vsegs)
        except SnapshotFormatError as exc:
            raise TableFormatError(str(exc)) from exc
    hi = value_hi.astype(np.uint64)
    lo = value_lo.astype(np.uint64)
    bad = _bad_rows(hi, lo, length, fib, width)
    if bad.any():
        row = int(np.argmax(bad))
        _reject_row(
            int(hi[row]), int(lo[row]), int(length[row]), int(fib[row]), width
        )
    # Preorder is (value, length) order; lexsort is stable, so the last
    # of any duplicate rows wins, as it would under repeated insert().
    order = np.lexsort((length, lo, hi))
    hi, lo, length, fib = hi[order], lo[order], length[order], fib[order]
    last = np.ones(len(order), bool)
    last[:-1] = (
        (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1]) | (length[1:] != length[:-1])
    )
    hi, lo, length, fib = hi[last], lo[last], length[last], fib[last]
    if width > 64:
        prefix_values = ((h << 64) | l for h, l in zip(_ints(hi), _ints(lo)))
    else:
        prefix_values = _ints(lo)
    rib = Rib(width=width, values=values)
    rib.load_sorted(prefix_values, _ints(length), _ints(fib))
    return rib


def _ints(column: np.ndarray, chunk: int = 1 << 16) -> Iterator[int]:
    """``column``'s values as Python ints, converted a chunk at a time, so
    no list holding every row is built."""
    for start in range(0, len(column), chunk):
        yield from column[start:start + chunk].tolist()


def _bad_rows(hi, lo, length, fib, width: int) -> np.ndarray:
    """Boolean mask of the rows :func:`_reject_row` rejects: FIB index
    out of range, length over ``width``, or value bits outside the
    prefix (host bits, or bits above ``width``)."""
    fib = fib.astype(np.uint64)
    length = length.astype(np.uint64)
    bad = (fib == 0) | (fib > _MAX_FIB_INDEX) | (length > width)
    host = width - np.minimum(length, width).astype(np.int64)
    bad |= (lo & _low_mask(np.minimum(host, 64))) != 0
    bad |= (hi & _low_mask(np.maximum(host - 64, 0))) != 0
    if width <= 64:
        bad |= (hi != 0) | ((lo >> np.uint64(width)) != 0)
    return bad


def _low_mask(bits: np.ndarray) -> np.ndarray:
    """``(1 << bits) - 1`` per element, for ``bits`` in 0..64."""
    shifted = np.left_shift(np.uint64(1), np.minimum(bits, 63).astype(np.uint64))
    return np.where(bits >= 64, np.uint64(_MASK64), shifted - np.uint64(1))


def _reject_row(hi: int, lo: int, plen: int, fib_index: int, width: int) -> None:
    """Raise the error for one bad rib-image row, worded as the per-route
    checks word it: the FIB index first, then :class:`Prefix` validation."""
    if not 1 <= fib_index <= _MAX_FIB_INDEX:
        raise TableFormatError(
            f"FIB index {fib_index} outside 1..{_MAX_FIB_INDEX}"
        )
    try:
        Prefix((hi << 64) | lo, plen, width)
    except ValueError as exc:
        raise TableFormatError(f"bad route in rib image: {exc}") from exc
    raise AssertionError(f"rib image row {hi:#x}:{lo:#x}/{plen} is valid")


def save_table_image(rib: Rib, destination: Union[str, BinaryIO]) -> int:
    """Write ``rib`` in the binary image format; returns bytes written.

    The binary sibling of :func:`save_table` — checksummed, an order of
    magnitude faster to reload, and readable through plain
    :func:`load_table` (which sniffs the magic).  Journal checkpoints
    (:meth:`repro.robust.journal.Journal.checkpoint`) are written this
    way.
    """
    image = rib_to_image(rib)
    blob = bytearray(image.nbytes)
    image.write_into(blob)
    del image  # its route columns are in the blob now
    owned = isinstance(destination, str)
    stream = open(destination, "wb") if owned else destination
    try:
        stream.write(blob)
    finally:
        if owned:
            stream.close()
    return len(blob)


def _load_table_image(path: str) -> Rib:
    from repro.parallel.image import TableImage

    with open(path, "rb") as stream:
        blob = stream.read()
    try:
        image = TableImage.open(blob)
    except SnapshotFormatError as exc:
        raise TableFormatError(f"bad table image: {exc}") from exc
    return rib_from_image(image)
