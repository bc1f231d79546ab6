"""Write-ahead journal for route updates: durability across crashes.

The transactional control plane (:mod:`repro.robust.txn`) guarantees that
an update either commits atomically or leaves no trace — *within one
process lifetime*.  A crash still loses every update since the last
explicit snapshot.  This module closes that gap with the classic
journal-then-publish discipline:

1. every validated message is **appended** to an on-disk journal with
   one write and one fsync (a group commit) *before* the in-memory
   structures mutate;
2. a **checkpoint** periodically freezes the full RIB to disk and
   truncates the journal segments it covers;
3. **recovery** loads the newest checkpoint and replays the journal tail
   through the update engine, yielding exactly the state the crashed
   process had durably committed.

On-disk layout (all integers little-endian)::

    <dir>/wal-<base>.log          journal segments, append-only
    <dir>/checkpoint-<seq>.tbl    RIB snapshots (binary RPIMG001 rib
                                  images)

    segment  = magic "RJOURNL1" | u64 base-seqno | record*
    record   = u32 payload-length | u32 crc32(payload) | payload
    payload  = u8 kind (0=announce, 1=withdraw) | u8 width | u8 plen
             | u8 reserved | u32 nexthop | u128 prefix value (big-endian)

Sequence numbers are 1-based and global across segments: segment
``wal-<base>.log`` holds records ``base, base+1, ...`` in order.  A
checkpoint named ``checkpoint-<seq>.tbl`` contains every update with
sequence number ``<= seq`` folded into its RIB, so replay applies only
records with higher sequence numbers.

Crash anatomy — what recovery tolerates, and what it refuses:

- **Torn tail** (crash mid-append): the final record of the *newest*
  segment is incomplete.  Recovery discards it and reports the count;
  the journal, reopened for appending, truncates it so new records never
  land after garbage.  By journal-then-publish ordering the torn update
  never committed, so discarding it is exactly right.
- **Torn checkpoint** (crash mid-checkpoint): checkpoints are written to
  a temporary name, fsynced, then atomically renamed, so a torn one is
  invisible; if the newest checkpoint is nonetheless unreadable,
  recovery falls back to the previous one (older segments are only
  deleted *after* the new checkpoint is durable, so the longer tail is
  still there to replay).
- **Anything else** — a CRC mismatch on a complete record, damage in a
  non-final segment, a gap in the segment sequence — raises
  :class:`~repro.errors.JournalCorrupt`: the update history can no
  longer be trusted and rebuilding a silently wrong table is worse than
  stopping.

Fault injection: :class:`~repro.robust.faults.FaultPlan` arms the
``journal`` (append), ``fsync``, ``checkpoint`` and ``torn-journal``
sites threaded through this module, so tests — and the chaos harness in
``tests/test_chaos_server.py`` — can crash the pipeline at every
interesting instant and assert recovery is exact.
"""

from __future__ import annotations

import fcntl
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.data import tableio
from repro.data.updates import Update
from repro.errors import InjectedFault, JournalCorrupt, JournalGap
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.robust import faults

MAGIC = b"RJOURNL1"

_SEG_HEADER = struct.Struct("<Q")           # base sequence number
_RECORD = struct.Struct("<II")              # payload length, crc32(payload)
_PAYLOAD = struct.Struct("<BBBBI")          # kind, width, plen, reserved, hop
_VALUE_BYTES = 16                           # prefix value, big-endian u128

_HEADER_BYTES = len(MAGIC) + _SEG_HEADER.size
_PAYLOAD_BYTES = _PAYLOAD.size + _VALUE_BYTES
_RECORD_BYTES = _RECORD.size + _PAYLOAD_BYTES

#: Sanity bound on one record's payload; a length field outside this range
#: is corruption, not an allocation request.
MAX_PAYLOAD_BYTES = 1 << 10

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_CHECKPOINT_PREFIX = "checkpoint-"
_CHECKPOINT_SUFFIX = ".tbl"

_KIND_CODE = {"A": 0, "W": 1}
_CODE_KIND = {0: "A", 1: "W"}


def _segment_name(base: int) -> str:
    return f"{_SEGMENT_PREFIX}{base:020d}{_SEGMENT_SUFFIX}"


def _checkpoint_name(seqno: int) -> str:
    return f"{_CHECKPOINT_PREFIX}{seqno:020d}{_CHECKPOINT_SUFFIX}"


def encode_update(update: Update) -> bytes:
    """One update as a journal record payload (stable wire format)."""
    prefix = update.prefix
    kind = _KIND_CODE.get(update.kind)
    if kind is None:
        raise ValueError(f"cannot journal update kind {update.kind!r}")
    nexthop = update.nexthop if update.kind == "A" else 0
    if not 0 <= nexthop < (1 << 32):
        raise ValueError(f"cannot journal next hop {nexthop}")
    return _PAYLOAD.pack(
        kind, prefix.width, prefix.length, 0, nexthop
    ) + prefix.value.to_bytes(_VALUE_BYTES, "big")


def decode_update(payload: bytes) -> Update:
    """Invert :func:`encode_update`; raises :class:`JournalCorrupt`."""
    if len(payload) != _PAYLOAD_BYTES:
        raise JournalCorrupt(
            f"record payload is {len(payload)} bytes, "
            f"expected {_PAYLOAD_BYTES}"
        )
    code, width, plen, _reserved, nexthop = _PAYLOAD.unpack_from(payload)
    kind = _CODE_KIND.get(code)
    value = int.from_bytes(payload[_PAYLOAD.size:], "big")
    if kind is None or width not in (32, 128) or plen > width:
        raise JournalCorrupt(
            f"record decodes to no valid update "
            f"(kind={code}, width={width}, plen={plen})"
        )
    try:
        prefix = Prefix(value, plen, width)
    except ValueError as error:
        raise JournalCorrupt(f"record holds a bad prefix: {error}") from None
    return Update(kind, prefix, nexthop)


def _frame(payload: bytes) -> bytes:
    return _RECORD.pack(len(payload), zlib.crc32(payload)) + payload


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


@dataclass
class SegmentInfo:
    """What one pass over a segment file found."""

    path: str
    base: int
    updates: List[Update]
    #: Bytes of an incomplete trailing record (0 when the file ends on a
    #: record boundary).  Only ever tolerated on the newest segment.
    torn_bytes: int = 0

    @property
    def count(self) -> int:
        return len(self.updates)

    @property
    def next_seqno(self) -> int:
        return self.base + len(self.updates)


def read_segment(path: str, tail_ok: bool = False) -> SegmentInfo:
    """Read one segment; raises :class:`JournalCorrupt` on real damage.

    ``tail_ok`` permits an *incomplete* final record (crash mid-append):
    it is reported via :attr:`SegmentInfo.torn_bytes` instead of raising.
    A complete record with a CRC mismatch is never tolerated — a partial
    ``write()`` produces a short file, not a full frame of garbage, so a
    bad CRC on a complete frame means real corruption.
    """
    with open(path, "rb") as stream:
        blob = stream.read()
    name = os.path.basename(path)
    if len(blob) < _HEADER_BYTES or blob[: len(MAGIC)] != MAGIC:
        raise JournalCorrupt(f"{name}: bad segment header")
    (base,) = _SEG_HEADER.unpack_from(blob, len(MAGIC))
    if base < 1:
        raise JournalCorrupt(f"{name}: impossible base seqno {base}")
    updates: List[Update] = []
    offset = _HEADER_BYTES
    total = len(blob)
    while offset < total:
        start = offset
        if total - offset < _RECORD.size:
            if tail_ok:
                return SegmentInfo(path, base, updates, total - start)
            raise JournalCorrupt(
                f"{name}: truncated record header at byte {start}"
            )
        length, crc = _RECORD.unpack_from(blob, offset)
        offset += _RECORD.size
        if not 1 <= length <= MAX_PAYLOAD_BYTES:
            raise JournalCorrupt(
                f"{name}: impossible record length {length} at byte {start}"
            )
        if total - offset < length:
            if tail_ok:
                return SegmentInfo(path, base, updates, total - start)
            raise JournalCorrupt(
                f"{name}: truncated record payload at byte {start}"
            )
        payload = blob[offset:offset + length]
        offset += length
        if zlib.crc32(payload) != crc:
            raise JournalCorrupt(
                f"{name}: CRC mismatch in record #{len(updates) + 1} "
                f"(seqno {base + len(updates)})"
            )
        updates.append(decode_update(payload))
    return SegmentInfo(path, base, updates, 0)


def _scan(directory: str) -> Tuple[List[Tuple[int, str]], List[Tuple[int, str]]]:
    """``(checkpoints, segments)`` as sorted ``(seqno/base, path)`` lists."""
    checkpoints: List[Tuple[int, str]] = []
    segments: List[Tuple[int, str]] = []
    for entry in os.listdir(directory):
        path = os.path.join(directory, entry)
        if entry.startswith(_SEGMENT_PREFIX) and entry.endswith(_SEGMENT_SUFFIX):
            digits = entry[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
        elif entry.startswith(_CHECKPOINT_PREFIX) and entry.endswith(
            _CHECKPOINT_SUFFIX
        ):
            digits = entry[len(_CHECKPOINT_PREFIX):-len(_CHECKPOINT_SUFFIX)]
        else:
            continue  # temporaries, DONE markers, unrelated files
        try:
            number = int(digits)
        except ValueError:
            raise JournalCorrupt(f"unparseable journal file name {entry!r}")
        (segments if entry.startswith(_SEGMENT_PREFIX) else checkpoints).append(
            (number, path)
        )
    return sorted(checkpoints), sorted(segments)


def newest_checkpoint(directory: str) -> Tuple[int, Optional[str]]:
    """``(seqno, path)`` of the newest checkpoint, or ``(0, None)``."""
    checkpoints, _ = _scan(directory)
    return checkpoints[-1] if checkpoints else (0, None)


@dataclass
class JournalStats:
    """Write-side accounting, mirrored into :mod:`repro.obs`."""

    appends: int = 0
    bytes_written: int = 0
    fsyncs: int = 0
    rotations: int = 0
    checkpoints: int = 0
    #: Torn-tail bytes truncated when the journal was (re)opened.
    torn_bytes_discarded: int = 0
    #: Flushes whose fsync exceeded the stall threshold — the journal's
    #: backpressure signal: a slow disk shows up here before it shows up
    #: as update-latency tail.
    flush_stalls: int = 0


class Journal:
    """An append-only, CRC-framed, segment-rotated route-update log.

    :meth:`append` is the one write path: a group commit of one message
    (one write, one fsync), so every record is durable when it returns.
    ``segment_bytes`` bounds one segment file; the journal rotates to a
    fresh segment beyond it so checkpoint truncation reclaims space in
    units smaller than "everything".

    >>> import tempfile
    >>> d = tempfile.mkdtemp()
    >>> journal = Journal(d)
    >>> journal.append([Update("A", Prefix.parse("10.0.0.0/8"), 1),
    ...                 Update("W", Prefix.parse("10.0.0.0/8"))])
    2
    >>> journal.stats.fsyncs
    1
    >>> journal.close()
    >>> Journal(d).last_seqno          # reopening resumes the sequence
    2
    """

    def __init__(self, directory: str, *, segment_bytes: int = 1 << 20) -> None:
        if segment_bytes < _RECORD_BYTES:
            raise ValueError(f"segment_bytes must be >= {_RECORD_BYTES}")
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.stats = JournalStats()
        self._stream = None
        self._stream_bytes = 0
        #: An fsync slower than this (seconds) counts as a flush stall.
        #: 10 ms is ~2 spinning-disk seeks — anything beyond it means the
        #: device is queueing and update latency is about to follow.
        self.stall_threshold_s = 0.010
        #: Duration of the most recent fsync (seconds).
        self.last_fsync_s = 0.0
        #: Set by a torn write (a modelled crash) or a message that could
        #: not be cut back out durably; refuses appends, like a dead process.
        self.crashed = False
        os.makedirs(directory, exist_ok=True)
        self._recover_append_position()

    # -- opening ------------------------------------------------------------

    def _recover_append_position(self) -> None:
        """Find the next sequence number; truncate a torn tail in place."""
        checkpoints, segments = _scan(self.directory)
        self.checkpoint_seqno = checkpoints[-1][0] if checkpoints else 0
        if not segments:
            self.last_seqno = self.checkpoint_seqno
            self._segment_path = None
            return
        base, path = segments[-1]
        info = read_segment(path, tail_ok=True)
        if info.torn_bytes:
            valid = os.path.getsize(path) - info.torn_bytes
            with open(path, "rb+") as stream:
                stream.truncate(valid)
                stream.flush()
                os.fsync(stream.fileno())
            self.stats.torn_bytes_discarded += info.torn_bytes
        self.last_seqno = info.next_seqno - 1
        self._segment_path = path

    def _open_segment(self) -> None:
        base = self.last_seqno + 1
        path = os.path.join(self.directory, _segment_name(base))
        self._stream = open(path, "ab")
        if self._stream.tell() == 0:
            self._stream.write(MAGIC + _SEG_HEADER.pack(base))
            self._stream.flush()
        self._stream_bytes = self._stream.tell()
        self._segment_path = path

    def _ensure_stream(self) -> None:
        if self.crashed:
            raise JournalCorrupt(
                f"{self.directory}: crashed mid-write; reopen to recover"
            )
        if self._stream is not None:
            return
        if self._segment_path is not None:
            # Resume the segment found at open time (its base is already
            # on disk; appends continue its sequence).
            self._stream = open(self._segment_path, "ab")
            self._stream_bytes = self._stream.tell()
        else:
            self._open_segment()

    # -- the write path -----------------------------------------------------

    def append(self, updates: Sequence[Update]) -> int:
        """Group commit: durably log one message's updates with one
        unbuffered write and one fsync; returns the last sequence number.

        The records are durable *before* the caller mutates any in-memory
        state — journal-then-publish.  A lock keeps :class:`JournalTailer`
        readers out until the fsync is done.  If the write or the fsync
        fails (or an armed :class:`FaultPlan` fires), the segment is cut
        back durably (else the journal is :attr:`crashed`), nothing is
        counted, and the caller must treat the whole message as "did not
        happen".
        """
        self._ensure_stream()
        if self._stream_bytes >= self.segment_bytes:
            self._rotate()
        frames: List[bytes] = []
        for update in updates:
            frames.append(self._framed(update, frames))
        if not frames:
            return self.last_seqno
        blob = b"".join(frames)
        fd = self._stream.fileno()
        mark = self._stream_bytes
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            try:
                _write_all(fd, blob)
                self._fsync()
            except BaseException:
                try:
                    os.ftruncate(fd, mark)
                    os.fsync(fd)
                except OSError:
                    self.crashed = True  # the segment's tail is unknown
                    raise
                raise
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
        self.last_seqno += len(frames)
        self.stats.appends += len(frames)
        self.stats.bytes_written += len(blob)
        self._stream_bytes += len(blob)
        self._count("repro_journal_appends_total", len(frames))
        self._count("repro_journal_bytes_total", len(blob))
        return self.last_seqno

    def flush(self) -> int:
        """The durable watermark: every appended record is already on
        stable storage, so this is :attr:`last_seqno` — the value a
        replica acks upstream for the quorum write path."""
        return self.last_seqno

    def _fsync(self) -> None:
        """The timed, counted fsync of the open segment."""
        faults.fault_point("fsync")
        started = time.perf_counter()
        os.fsync(self._stream.fileno())
        self.last_fsync_s = time.perf_counter() - started
        self.stats.fsyncs += 1
        self._count("repro_journal_fsyncs_total")
        if self.last_fsync_s > self.stall_threshold_s:
            self.stats.flush_stalls += 1
            self._count("repro_journal_flush_stalls_total")

    def _framed(self, update: Update, before: Sequence[bytes] = ()) -> bytes:
        """``update``'s record, past the ``journal`` and ``torn-journal``
        fault points.  A torn write models a crash mid-write: the
        ``before`` records and part of this one reach the file, then the
        process "dies" (the injected fault)."""
        faults.fault_point("journal")
        record = _frame(encode_update(update))
        torn = faults.torn_journal_write(record)
        if torn is None:
            return record
        self._stream.write(b"".join(before) + torn)
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self.crashed = True
        raise InjectedFault(
            f"torn journal write ({len(torn)}/{len(record)} bytes)"
        )

    def _rotate(self) -> None:
        self._stream.close()
        self._stream = None
        self.stats.rotations += 1
        self._open_segment()

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self, rib: Rib) -> str:
        """Freeze ``rib`` (the state as of :attr:`last_seqno`) and truncate.

        Write order is what makes this crash-safe: the snapshot goes to a
        temporary file, is fsynced, and only then atomically renamed into
        place; segments and the previous checkpoint are deleted *after*
        the rename.  A crash at any instant leaves either the old
        checkpoint with its full tail, or the new checkpoint (possibly
        with already-covered segments, which replay skips by seqno).
        Returns the checkpoint path.
        """
        return self._install(rib, self.last_seqno, fault=True)

    def install_checkpoint(self, rib: Rib, seqno: int) -> str:
        """Adopt an externally supplied snapshot as the journal's new base.

        Unlike :meth:`checkpoint` — which freezes *this* journal's state
        at its own :attr:`last_seqno` — this installs a snapshot produced
        elsewhere (a replication primary) together with the sequence
        number it covers, discarding every local segment and older
        checkpoint.  The journal's sequence resumes at ``seqno``; a
        replica that re-synchronises this way can itself be promoted and
        keep appending with globally consistent sequence numbers.
        """
        if seqno < 0:
            raise ValueError("checkpoint seqno must be >= 0")
        self.close()
        return self._install(rib, seqno)

    def _install(self, rib: Rib, seqno: int, fault: bool = False) -> str:
        """Write ``rib`` as the checkpoint covering ``seqno``, then drop
        every segment and older checkpoint (``fault`` arms the
        ``checkpoint`` fault point before the rename)."""
        final = os.path.join(self.directory, _checkpoint_name(seqno))
        tmp = final + ".tmp"
        with open(tmp, "wb") as stream:
            tableio.save_table_image(rib, stream)
            stream.flush()
            os.fsync(stream.fileno())
        if fault:
            try:
                faults.fault_point("checkpoint")
            except Exception:
                os.unlink(tmp)
                raise
        os.replace(tmp, final)
        self._fsync_directory()
        # The snapshot is durable: every segment record is <= seqno by
        # construction, so all segments (and older checkpoints) are dead.
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        checkpoints, segments = _scan(self.directory)
        for _, path in segments:
            os.unlink(path)
        for number, path in checkpoints:
            if number != seqno:
                os.unlink(path)
        self._segment_path = None
        self.checkpoint_seqno = self.last_seqno = seqno
        self.stats.checkpoints += 1
        self._count("repro_journal_checkpoints_total")
        return final

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- lifecycle / introspection ------------------------------------------

    @property
    def applied_seqno(self) -> int:
        """The durable tail position: highest sequence number on disk.

        Stable watermark for replication and tests — replicas compare
        theirs against the primary's to measure lag, and promotion elects
        the highest.  Identical to :attr:`last_seqno` today; exposed under
        the watermark name so callers don't depend on the write-side
        attribute staying the tail position forever.
        """
        return self.last_seqno

    def close(self) -> None:
        stream = self._stream
        if stream is not None:
            self._stream = None
            stream.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def describe(self) -> dict:
        """JSON-ready state + stats snapshot."""
        return {
            "directory": self.directory,
            "last_seqno": self.last_seqno,
            "applied_seqno": self.applied_seqno,
            "checkpoint_seqno": self.checkpoint_seqno,
            "tail_records": self.last_seqno - self.checkpoint_seqno,
            "segment_bytes": self.segment_bytes,
            "appends": self.stats.appends,
            "bytes_written": self.stats.bytes_written,
            "fsyncs": self.stats.fsyncs,
            "rotations": self.stats.rotations,
            "checkpoints": self.stats.checkpoints,
            "torn_bytes_discarded": self.stats.torn_bytes_discarded,
            "flush_stalls": self.stats.flush_stalls,
        }

    def _count(self, name: str, amount: int = 1) -> None:
        from repro import obs

        obs.registry().counter(
            name, "Route-update journal write-side totals.",
            journal=os.path.basename(os.path.normpath(self.directory)),
        ).inc(amount)


# -- recovery ------------------------------------------------------------------


@dataclass
class RecoveryResult:
    """Everything :func:`recover` reconstructed, plus how it went."""

    #: The recovered control plane (RIB + compiled trie), ready to serve
    #: behind an :class:`~repro.server.pipeline.UpdatePipeline` that
    #: journals further updates.
    trie: "object"
    checkpoint_seqno: int = 0
    checkpoint_path: Optional[str] = None
    #: Checkpoints that existed but could not be read (fell back past them).
    checkpoints_skipped: int = 0
    #: Highest durable sequence number (checkpoint + replayed tail).
    last_seqno: int = 0
    #: Tail records replayed through the update engine.
    replayed: int = 0
    #: Replayed records the update engine rejected (identical to how the
    #: original process rejected them — state-level failures replay
    #: deterministically).
    skipped: int = 0
    #: Bytes of a torn final record discarded from the newest segment.
    torn_bytes: int = 0
    segments: int = 0
    duration_s: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def rib(self) -> Rib:
        return self.trie.rib

    @property
    def applied_seqno(self) -> int:
        """Watermark of the recovered state: every update with sequence
        number ``<= applied_seqno`` is folded into :attr:`rib`."""
        return self.last_seqno

    def describe(self) -> dict:
        return {
            "checkpoint_seqno": self.checkpoint_seqno,
            "checkpoint": self.checkpoint_path,
            "checkpoints_skipped": self.checkpoints_skipped,
            "last_seqno": self.last_seqno,
            "applied_seqno": self.applied_seqno,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "torn_bytes": self.torn_bytes,
            "segments": self.segments,
            "routes": len(self.rib),
            "duration_s": round(self.duration_s, 6),
        }


def recover(
    directory: str,
    *,
    config=None,
    width: int = 32,
    verify: bool = True,
    samples: int = 500,
) -> RecoveryResult:
    """Rebuild the durable state from a journal directory.

    Loads the newest readable checkpoint (falling back to older ones if
    the newest is damaged), replays the journal tail through the
    transactional update engine, and — with ``verify=True`` — proves the
    result with :meth:`Poptrie.verify` against the recovered RIB.

    An empty directory recovers to an empty width-``width`` table at
    sequence number 0; real corruption raises
    :class:`~repro.errors.JournalCorrupt`.  Recovery is idempotent:
    replaying the same journal twice yields the same state.
    """
    from repro.core.poptrie import PoptrieConfig
    from repro.errors import TableFormatError
    from repro.robust.txn import TransactionalPoptrie

    started = time.perf_counter()
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no journal directory {directory!r}")
    checkpoints, segments = _scan(directory)

    rib: Optional[Rib] = None
    result = RecoveryResult(trie=None)
    for seqno, path in reversed(checkpoints):
        try:
            rib = tableio.load_table(path)
        except (TableFormatError, OSError) as error:
            result.checkpoints_skipped += 1
            result.errors.append(f"{os.path.basename(path)}: {error}")
            continue
        result.checkpoint_seqno = seqno
        result.checkpoint_path = path
        break
    if rib is None:
        if result.checkpoints_skipped:
            raise JournalCorrupt(
                f"no readable checkpoint in {directory!r}: "
                + "; ".join(result.errors)
            )
        rib = Rib(width=width)

    # Gather the tail.  Segments must chain: each one starts where the
    # previous ended; the first must not start beyond the checkpoint+1.
    tail: List[Update] = []
    next_expected: Optional[int] = None
    for position, (base, path) in enumerate(segments):
        last = position == len(segments) - 1
        info = read_segment(path, tail_ok=last)
        if base != info.base:  # pragma: no cover - name/header cross-check
            raise JournalCorrupt(
                f"{os.path.basename(path)}: header base {info.base} "
                f"disagrees with file name"
            )
        if next_expected is not None and base != next_expected:
            raise JournalCorrupt(
                f"{os.path.basename(path)}: segment starts at seqno {base}, "
                f"expected {next_expected} (missing segment?)"
            )
        if next_expected is None and base > result.checkpoint_seqno + 1:
            raise JournalCorrupt(
                f"{os.path.basename(path)}: first segment starts at seqno "
                f"{base} but the checkpoint covers only "
                f"{result.checkpoint_seqno} (missing segment?)"
            )
        next_expected = info.next_seqno
        result.torn_bytes += info.torn_bytes
        result.segments += 1
        for offset, update in enumerate(info.updates):
            if base + offset > result.checkpoint_seqno:
                tail.append(update)

    result.last_seqno = max(
        result.checkpoint_seqno,
        next_expected - 1 if next_expected is not None else 0,
    )

    trie = TransactionalPoptrie(
        config=config or PoptrieConfig(), width=rib.width, rib=rib
    )
    report = trie.apply_stream(tail, on_error="skip")
    result.trie = trie
    result.replayed = report.applied
    result.skipped = report.rejected
    result.errors.extend(message for _, message in report.errors)
    if verify:
        trie.trie.verify(trie.rib, samples=samples)
    result.duration_s = time.perf_counter() - started
    _gauge_recovery(directory, result.duration_s)
    return result


# -- tail shipping -------------------------------------------------------------


class JournalTailer:
    """Incremental reader of a *live* journal directory: the shipping side
    of WAL replication.

    A tailer remembers the highest sequence number it has delivered
    (:attr:`position`) and, on every :meth:`poll`, parses only the bytes
    appended since its last visit — following segment rotation, tolerating
    a partially written final record (delivered once complete), and
    skipping nothing:

    >>> import tempfile
    >>> d = tempfile.mkdtemp()
    >>> journal = Journal(d, segment_bytes=64)     # rotate every ~2 records
    >>> tailer = JournalTailer(d)
    >>> for i in range(5):
    ...     _ = journal.append([Update("A", Prefix(i << 24, 8), i + 1)])
    >>> [seqno for seqno, _ in tailer.poll()]
    [1, 2, 3, 4, 5]
    >>> tailer.poll()                              # nothing new
    []

    When the writer checkpoints, it deletes every segment — a tailer that
    had not finished them can no longer be served incrementally and
    :meth:`poll` raises :class:`~repro.errors.JournalGap` carrying the
    checkpoint sequence number to re-synchronise from.  Real damage (CRC
    mismatch on a complete record, bad headers) still raises
    :class:`~repro.errors.JournalCorrupt`.
    """

    def __init__(self, directory: str, after_seqno: int = 0) -> None:
        if after_seqno < 0:
            raise ValueError("after_seqno must be >= 0")
        self.directory = directory
        #: Highest sequence number already delivered; poll() continues
        #: strictly after it.
        self.position = after_seqno
        self._path: Optional[str] = None
        self._offset = 0          # byte offset of the next unparsed record
        self._next = 0            # seqno of the record expected at _offset

    # -- attaching to the right segment -------------------------------------

    def _attach(self) -> bool:
        """Point at the segment holding ``position + 1``.

        Returns ``False`` when that record simply does not exist yet;
        raises :class:`JournalGap` when it can never appear (checkpoint
        truncation already folded it away).
        """
        need = self.position + 1
        checkpoints, segments = _scan(self.directory)
        checkpoint_seqno = checkpoints[-1][0] if checkpoints else 0
        if need <= checkpoint_seqno:
            raise JournalGap(
                f"records after seqno {self.position} were truncated by "
                f"checkpoint {checkpoint_seqno}; re-sync from the checkpoint",
                resync_seqno=checkpoint_seqno,
            )
        candidate: Optional[Tuple[int, str]] = None
        for base, path in segments:
            if base <= need:
                candidate = (base, path)
            elif candidate is None:
                raise JournalGap(
                    f"oldest segment starts at seqno {base} but the tail "
                    f"position is {self.position}; re-sync from the "
                    f"checkpoint",
                    resync_seqno=checkpoint_seqno,
                )
        if candidate is None:
            return False
        base, path = candidate
        self._path = path
        self._offset = _HEADER_BYTES
        self._next = base
        return True

    def _drain(self, out: List[Tuple[int, Update]],
               limit: Optional[int]) -> int:
        """Parse complete records appended to the current segment."""
        try:
            with open(self._path, "rb") as stream:
                # Shared lock: a group commit in flight holds it
                # exclusively until its fsync, or its cut, is done.
                fcntl.flock(stream.fileno(), fcntl.LOCK_SH)
                stream.seek(self._offset)
                blob = stream.read()
        except FileNotFoundError:
            # Checkpoint truncation raced us; re-attach decides whether
            # the remaining records are gone (JournalGap) or elsewhere.
            self._path = None
            return 0
        emitted = 0
        offset = 0
        total = len(blob)
        name = os.path.basename(self._path)
        while total - offset >= _RECORD.size:
            if limit is not None and len(out) >= limit:
                break
            length, crc = _RECORD.unpack_from(blob, offset)
            if not 1 <= length <= MAX_PAYLOAD_BYTES:
                raise JournalCorrupt(
                    f"{name}: impossible record length {length} at byte "
                    f"{self._offset + offset}"
                )
            if total - offset - _RECORD.size < length:
                break  # incomplete tail: the writer is mid-append
            payload = blob[offset + _RECORD.size:offset + _RECORD.size + length]
            if zlib.crc32(payload) != crc:
                raise JournalCorrupt(
                    f"{name}: CRC mismatch at seqno {self._next}"
                )
            update = decode_update(payload)
            if self._next > self.position:
                out.append((self._next, update))
                self.position = self._next
                emitted += 1
            self._next += 1
            offset += _RECORD.size + length
        self._offset += offset
        return emitted

    def _rotate(self) -> bool:
        """Switch to the successor segment, if the writer opened one."""
        _, segments = _scan(self.directory)
        for base, path in segments:
            if base == self.position + 1 and path != self._path:
                self._path = path
                self._offset = _HEADER_BYTES
                self._next = base
                return True
        if self._path is None or not os.path.exists(self._path):
            # The segment vanished (checkpoint truncation): re-attach,
            # which either finds the data's new home or raises JournalGap.
            self._path = None
            return True
        return False

    # -- the read path -------------------------------------------------------

    def poll(self, limit: Optional[int] = None) -> List[Tuple[int, Update]]:
        """All complete ``(seqno, update)`` records appended since the
        last poll, oldest first (at most ``limit`` of them)."""
        out: List[Tuple[int, Update]] = []
        while limit is None or len(out) < limit:
            if self._path is None and not self._attach():
                break
            self._drain(out, limit)
            if limit is not None and len(out) >= limit:
                break
            if not self._rotate():
                break
        return out


def _gauge_recovery(directory: str, duration_s: float) -> None:
    from repro import obs

    obs.registry().gauge(
        "repro_journal_recovery_seconds",
        "Duration of the last journal recovery (checkpoint load + replay).",
        journal=os.path.basename(os.path.normpath(directory)),
    ).set(duration_s)
