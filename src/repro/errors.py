"""Library-wide exception taxonomy.

Every error this library raises deliberately derives from
:class:`ReproError`, so callers can fence off the whole reproduction with
one ``except ReproError`` while still matching precise categories:

====================== =====================================================
:class:`StructuralLimitError`  a data structure's encoding limit was exceeded
:class:`TableFormatError`      a text routing-table snapshot is malformed
:class:`SnapshotFormatError`   a binary FIB snapshot is malformed/truncated
:class:`UpdateRejectedError`   a route update was refused before any mutation
:class:`VerificationError`     an invariant check against the shadow RIB failed
:class:`InjectedFault`         a deliberately injected test fault fired
:class:`ProtocolError`         a lookup-service wire frame is malformed
:class:`JournalCorrupt`        a route-update journal segment is corrupt
                               beyond the recoverable torn tail
:class:`PoolError`             the shared-memory worker pool lost so many
                               workers it can no longer answer
:class:`RestoreRefused`        an allocator restore point cannot be rolled
                               back exactly (a block was freed since it was
                               taken, or it is closed or superseded)
====================== =====================================================

:class:`TableFormatError` and :class:`SnapshotFormatError` also derive from
:class:`ValueError` so pre-taxonomy callers that caught ``ValueError`` keep
working.  Each class documents its trigger with a runnable example.
"""


class ReproError(Exception):
    """Base class for all library errors."""


class StructuralLimitError(ReproError):
    """A data structure's encoding limit was exceeded.

    Section 4.8 of the paper turns on exactly these limits: SAIL cannot
    encode more than 2^15 chunk identifiers in a 15-bit BCN field, DXR
    supports at most 2^19 address ranges (2^20 when "modified"), and a
    Poptrie with 16-bit leaves supports at most 2^16 FIB entries.  Raising a
    dedicated error lets the scalability benchmark report "N/A" for the
    structures that cannot hold a table, as Table 5 does.

    >>> from repro.core.poptrie import Poptrie
    >>> from repro.net.rib import Rib
    >>> Poptrie.from_rib(Rib(), fib_size=1 << 20)
    Traceback (most recent call last):
        ...
    repro.errors.StructuralLimitError: Poptrie18: FIB index 1048575 exceeds the next-hop limit 65535
    """


class TableFormatError(ReproError, ValueError):
    """A routing-table snapshot could not be parsed.

    Raised by :func:`repro.data.tableio.load_table` for missing/bad headers,
    malformed route lines, out-of-range FIB indices, address-family
    mismatches and corrupt binary rib images.  ``line`` carries the 1-based
    line number of the offending input (``None`` for whole-file problems).

    >>> import io
    >>> from repro.data.tableio import load_table
    >>> load_table(io.StringIO(
    ...     "# repro-table v1 width=32\\n10.0.0.0/8 not-a-number\\n"))
    Traceback (most recent call last):
        ...
    repro.errors.TableFormatError: line 2: bad FIB index 'not-a-number'
    >>> try:
    ...     load_table(io.StringIO("# repro-table v1 width=32\\n10.0.0.0/8 0\\n"))
    ... except TableFormatError as error:
    ...     error.line
    2
    """

    def __init__(self, message: str, line: "int | None" = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        #: 1-based line number of the offending input line, or ``None``.
        self.line = line


class SnapshotFormatError(ReproError, ValueError):
    """A binary FIB snapshot is not loadable (truncated, corrupted, bad
    magic, CRC mismatch, or structurally invalid after decode).

    >>> from repro.parallel.image import structure_from_bytes
    >>> structure_from_bytes(b"not a table image")
    Traceback (most recent call last):
        ...
    repro.errors.SnapshotFormatError: bad magic
    """


class UpdateRejectedError(ReproError):
    """A route update was refused before mutating any state.

    The update path validates announcements and withdrawals *first* —
    withdrawing a prefix that is not in the RIB, announcing a next-hop
    index that is negative, zero (the NO_ROUTE sentinel) or too wide for
    the configured leaf size — so a bad BGP message can never leave the
    RIB and the compiled trie divergent.

    >>> from repro.robust.txn import TransactionalPoptrie
    >>> from repro.net.prefix import Prefix
    >>> up = TransactionalPoptrie()
    >>> up.withdraw(Prefix.parse("10.0.0.0/8"))
    Traceback (most recent call last):
        ...
    repro.errors.UpdateRejectedError: cannot withdraw 10.0.0.0/8: not in the RIB
    >>> up.announce(Prefix.parse("10.0.0.0/8"), 1 << 20)
    Traceback (most recent call last):
        ...
    repro.errors.UpdateRejectedError: next-hop index 1048576 outside 1..65535
    >>> up.generation          # nothing was mutated by either rejection
    0
    """


class VerificationError(ReproError):
    """An invariant self-check of a compiled structure failed.

    Raised by :func:`repro.robust.verify.verify_poptrie` (also reachable as
    ``Poptrie.verify``) with a diagnostic naming the violated invariant.

    >>> from repro.core.poptrie import Poptrie, PoptrieConfig
    >>> from repro.net.prefix import Prefix
    >>> from repro.net.rib import Rib
    >>> rib = Rib()
    >>> rib.insert(Prefix.parse("10.0.0.0/8"), 1)
    0
    >>> trie = Poptrie.from_rib(rib, PoptrieConfig(s=0))
    >>> trie.lvec[trie.root_index] = 0           # corrupt the leaf vector
    >>> trie.verify(rib)
    Traceback (most recent call last):
        ...
    repro.errors.VerificationError: node 0: leaf slot 0 has no leafvec run start
    """


class InjectedFault(ReproError):
    """A deliberately injected fault fired (testing only).

    Raised at the injection points a :class:`repro.robust.faults.FaultPlan`
    arms — never during normal operation.

    >>> from repro.mem.buddy import BuddyAllocator
    >>> from repro.robust.faults import FaultPlan
    >>> with FaultPlan(alloc_fail_at=2):
    ...     allocator = BuddyAllocator(capacity=16)
    ...     first = allocator.alloc(1)
    ...     second = allocator.alloc(1)
    Traceback (most recent call last):
        ...
    repro.errors.InjectedFault: injected fault at alloc #2
    """


class ProtocolError(ReproError, ValueError):
    """A lookup-service wire frame could not be parsed.

    Raised by :mod:`repro.server.protocol` for truncated frames,
    oversized length prefixes, unknown opcodes and version mismatches.
    Deriving from ``ValueError`` keeps it catchable alongside the other
    format errors.

    >>> from repro.server import protocol
    >>> protocol.decode_request(b"\\x00")
    Traceback (most recent call last):
        ...
    repro.errors.ProtocolError: request header truncated (1 bytes)
    """


class JournalCorrupt(ReproError, ValueError):
    """A route-update journal is corrupt beyond the recoverable torn tail.

    Replay (:func:`repro.robust.journal.recover`) tolerates exactly one
    kind of damage: an *incomplete* final record in the newest segment —
    the signature of a crash mid-append — which is discarded and counted.
    Anything else (a CRC mismatch on a complete record, a mangled segment
    header, an impossible record length, damage in a non-final segment)
    means the update history can no longer be trusted, and replay stops
    with this error rather than rebuilding a silently wrong table.

    >>> import os, tempfile
    >>> from repro.robust.journal import Journal, recover
    >>> from repro.data.updates import Update
    >>> from repro.net.prefix import Prefix
    >>> d = tempfile.mkdtemp()
    >>> j = Journal(d)
    >>> j.append([Update("A", Prefix.parse("10.0.0.0/8"), 1),
    ...           Update("A", Prefix.parse("10.64.0.0/10"), 2)])
    2
    >>> j.close()
    >>> seg = os.path.join(d, sorted(os.listdir(d))[0])
    >>> blob = bytearray(open(seg, "rb").read())
    >>> blob[20] ^= 0xFF                    # flip a byte mid-segment
    >>> with open(seg, "wb") as f: _ = f.write(blob)
    >>> recover(d)
    Traceback (most recent call last):
        ...
    repro.errors.JournalCorrupt: ...
    """


class JournalGap(ReproError):
    """A journal tail reader fell behind the checkpoint truncation horizon.

    Raised by :class:`repro.robust.journal.JournalTailer` when the records
    after its watermark are no longer on disk — the writer checkpointed and
    truncated the segments the reader had not consumed yet.  This is *not*
    corruption: the journal is healthy, the reader is just too far behind
    to be served incrementally and must re-synchronise from the checkpoint
    (``resync_seqno`` names the checkpoint sequence number to restart
    from).  The replication publisher answers it by shipping a fresh
    checkpoint frame instead of a record stream.
    """

    def __init__(self, message: str, resync_seqno: int = 0) -> None:
        super().__init__(message)
        #: Sequence number of the checkpoint to re-synchronise from.
        self.resync_seqno = resync_seqno


class ClusterError(ReproError, RuntimeError):
    """A cluster operation could not be completed.

    Raised by the replication/failover plane (:mod:`repro.cluster`) for
    conditions the retry machinery cannot paper over: every endpoint of a
    shard is unreachable after the retry budget, a promotion was refused
    because the replica's applied sequence number is stale, a replication
    frame stream is malformed, or a shard map does not cover the address
    space.  Deriving from ``RuntimeError`` keeps it catchable by generic
    service wrappers, like :class:`PoolError`.
    """


class PoolError(ReproError, RuntimeError):
    """The shared-memory worker pool can no longer answer lookups.

    :class:`repro.parallel.WorkerPool` transparently respawns workers
    that die (even from ``SIGKILL``) and re-dispatches their shards, so
    a single crash never surfaces to callers.  This error is the escape
    hatch for the pathological cases: a worker that dies repeatedly
    faster than the restart budget allows (``PoolConfig.restart_limit``),
    a batch that exceeds ``PoolConfig.batch_timeout`` with all workers
    alive, or use of a pool after :meth:`~repro.parallel.WorkerPool.close`.
    Deriving from ``RuntimeError`` keeps it catchable by generic service
    wrappers.
    """


class RestoreRefused(ReproError, RuntimeError):
    """A buddy-allocator restore point cannot be rolled back exactly.

    :meth:`repro.mem.buddy.BuddyAllocator.restore` undoes only the
    allocations logged since the point.  It refuses, rather than diverging
    silently, when a block was freed since the point (update staging never
    frees), or when the point was already closed or superseded.

    >>> from repro.mem.buddy import BuddyAllocator
    >>> allocator = BuddyAllocator(capacity=16)
    >>> block = allocator.alloc(4)
    >>> point = allocator.snapshot()
    >>> allocator.free(block)
    >>> allocator.restore(point)
    Traceback (most recent call last):
        ...
    repro.errors.RestoreRefused: 1 block(s) freed since the restore point; the allocation log cannot undo frees
    """
