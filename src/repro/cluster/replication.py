"""The WAL-shipping replication channel: frames, publisher, client helpers.

One TCP connection carries length-prefixed frames (the same 4-byte
big-endian framing as the lookup protocol, :mod:`repro.server.protocol`);
the first payload byte is the frame type.  A connection is either a
**subscription** (the client's first frame is HELLO and the server then
streams state at it) or a **control session** (QUERY / PROMOTE /
RETARGET requests, each answered with an INFO frame).

Subscription stream (all integers big-endian)::

    client -> HELLO      u64 from_seqno   (SYNC_FROM_SCRATCH forces a
                                           checkpoint first)
    server -> CHECKPOINT u64 seqno | u32 crc32(image) | rib image bytes
    server -> RECORD     u64 seqno | u32 chain | 24-byte update payload
    server -> HEARTBEAT  u64 watermark    (primary's applied seqno)
    client -> ACK        u64 seqno        (durably applied on the
                                           subscriber; quorum input)

The subscriber names the highest sequence number it has durably applied;
the publisher replies with either the journal tail from there (records
``from_seqno+1, from_seqno+2, ...`` — gapless by construction of the
journal) or, when that tail has been truncated by a checkpoint, a full
CHECKPOINT frame followed by the records after it.

ACK frames flow back on the same subscription connection: a subscriber
sends one after each group commit to its own journal (at the heartbeat
that follows a shipped batch), naming the highest seqno it made
durable.  The publisher tracks the acked watermark per subscriber,
which is what :meth:`ReplicationPublisher.wait_quorum` — and through
it the ``serve --min-insync N`` bounded-loss write path
(:class:`QuorumGate`) — waits on.  Subscribers that never
ack (or publishers that ignore acks) interoperate unchanged: the
watermark simply never advances.

Two integrity layers protect the stream beyond TCP's own checksums:

- every RECORD payload is the journal's own 24-byte update encoding
  (:func:`repro.robust.journal.encode_update`), so a replica decodes
  with the same code path recovery uses, and
- a **session chain CRC**: the CHECKPOINT frame seeds the chain with
  ``crc32(image)``, and each RECORD carries
  ``chain_n = crc32(payload_n, chain_{n-1})``.  A replica that computes
  a different chain knows it diverged from the primary's byte stream —
  not just that one frame was damaged — and must re-sync from a
  checkpoint instead of applying further updates.

:class:`ReplicationPublisher` is journal-directory-driven: it tails the
primary's WAL directory with :class:`~repro.robust.journal.JournalTailer`
per subscriber, so the primary's write path needs no replication hooks
at all — appending to the journal *is* publishing to the cluster.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ClusterError, JournalGap, SnapshotFormatError
from repro.parallel.image import TableImage
from repro.robust.journal import JournalTailer, newest_checkpoint
from repro.server import protocol

FRAME_HELLO = 1
FRAME_CHECKPOINT = 2
FRAME_RECORD = 3
FRAME_HEARTBEAT = 4
FRAME_QUERY = 5
FRAME_INFO = 6
FRAME_PROMOTE = 7
FRAME_RETARGET = 8
FRAME_ACK = 9

#: HELLO from_seqno sentinel: "I have nothing; start with a checkpoint."
SYNC_FROM_SCRATCH = (1 << 64) - 1

#: Replication frames may carry a full table checkpoint, so the frame
#: bound is far larger than the lookup protocol's.
REPL_MAX_FRAME = 1 << 28

_TYPE = struct.Struct("!B")
_U64 = struct.Struct("!Q")
_CHECKPOINT_HEAD = struct.Struct("!BQI")     # type, seqno, crc32(image)
_RECORD_HEAD = struct.Struct("!BQI")         # type, seqno, chain crc
_RETARGET_HEAD = struct.Struct("!BH")        # type, port

_UPDATE_BYTES = 24  # fixed payload size of the journal record format


def chain_crc(payload: bytes, chain: int) -> int:
    """The session chain: ``crc32`` of this payload seeded by the chain."""
    return zlib.crc32(payload, chain)


# -- frame encoding ------------------------------------------------------------


def encode_hello(from_seqno: int) -> bytes:
    return _TYPE.pack(FRAME_HELLO) + _U64.pack(from_seqno)


def encode_checkpoint(seqno: int, image: bytes) -> bytes:
    return _CHECKPOINT_HEAD.pack(
        FRAME_CHECKPOINT, seqno, zlib.crc32(image)
    ) + image


def encode_record(seqno: int, chain: int, payload: bytes) -> bytes:
    if len(payload) != _UPDATE_BYTES:
        raise ClusterError(
            f"record payload is {len(payload)} bytes, not {_UPDATE_BYTES}"
        )
    return _RECORD_HEAD.pack(FRAME_RECORD, seqno, chain) + payload


def encode_heartbeat(watermark: int) -> bytes:
    return _TYPE.pack(FRAME_HEARTBEAT) + _U64.pack(watermark)


def encode_ack(seqno: int) -> bytes:
    return _TYPE.pack(FRAME_ACK) + _U64.pack(seqno)


def encode_query() -> bytes:
    return _TYPE.pack(FRAME_QUERY)


def encode_info(info: dict) -> bytes:
    return _TYPE.pack(FRAME_INFO) + json.dumps(info).encode("utf-8")


def encode_promote(min_seqno: int) -> bytes:
    return _TYPE.pack(FRAME_PROMOTE) + _U64.pack(min_seqno)


def encode_retarget(host: str, port: int) -> bytes:
    if not 0 < port < (1 << 16):
        raise ClusterError(f"bad retarget port {port}")
    return _RETARGET_HEAD.pack(FRAME_RETARGET, port) + host.encode("utf-8")


def decode_frame(
    payload: bytes, max_frame: int = REPL_MAX_FRAME
) -> Tuple[int, tuple]:
    """``(frame_type, operands)`` of one replication frame.

    Every malformation is a typed :class:`~repro.errors.ClusterError`:
    empty and truncated frames, frames longer than ``max_frame``,
    payload-size mismatches, CRC failures, and unknown frame types —
    nothing escapes as a raw ``struct.error`` or decode exception.
    """
    if not payload:
        raise ClusterError("empty replication frame")
    if len(payload) > max_frame:
        raise ClusterError(
            f"oversized replication frame ({len(payload)} bytes "
            f"> {max_frame})"
        )
    kind = payload[0]
    body = payload[1:]
    try:
        if kind in (FRAME_HELLO, FRAME_HEARTBEAT, FRAME_PROMOTE, FRAME_ACK):
            (seqno,) = _U64.unpack(body)
            return kind, (seqno,)
        if kind == FRAME_CHECKPOINT:
            _, seqno, crc = _CHECKPOINT_HEAD.unpack_from(payload)
            image = payload[_CHECKPOINT_HEAD.size:]
            if zlib.crc32(image) != crc:
                raise ClusterError(
                    f"checkpoint frame for seqno {seqno} fails its CRC"
                )
            return kind, (seqno, image)
        if kind == FRAME_RECORD:
            _, seqno, chain = _RECORD_HEAD.unpack_from(payload)
            record = payload[_RECORD_HEAD.size:]
            if len(record) != _UPDATE_BYTES:
                raise ClusterError(
                    f"record frame for seqno {seqno} carries "
                    f"{len(record)} payload bytes, not {_UPDATE_BYTES}"
                )
            return kind, (seqno, chain, record)
        if kind == FRAME_QUERY:
            if body:
                raise ClusterError("QUERY frame carries a body")
            return kind, ()
        if kind == FRAME_INFO:
            return kind, (json.loads(body.decode("utf-8")),)
        if kind == FRAME_RETARGET:
            _, port = _RETARGET_HEAD.unpack_from(payload)
            return kind, (payload[_RETARGET_HEAD.size:].decode("utf-8"), port)
    except struct.error:
        raise ClusterError(
            f"truncated replication frame (type {kind}, {len(payload)} bytes)"
        ) from None
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ClusterError(f"malformed replication frame: {error}") from None
    raise ClusterError(f"unknown replication frame type {kind}")


# -- the publisher -------------------------------------------------------------


def _checkpoint_image(directory: str) -> Tuple[int, bytes]:
    """The newest checkpoint as ``(seqno, rib image bytes)``: the file's
    own bytes, shipped once :meth:`TableImage.open` has checked them.
    A damaged checkpoint is refused, never shipped."""
    seqno, path = newest_checkpoint(directory)
    if path is None:
        raise ClusterError(f"no checkpoint to ship in {directory!r}")
    with open(path, "rb") as stream:
        image = stream.read()
    try:
        TableImage.open(image)
    except SnapshotFormatError as error:
        raise ClusterError(f"checkpoint {path!r} refused: {error}") from None
    return seqno, image


class _Subscription:
    """One live subscriber's quorum bookkeeping."""

    __slots__ = ("peer", "acked")

    def __init__(self, peer: str) -> None:
        self.peer = peer
        #: Highest seqno this subscriber reported durably applied; -1
        #: until the first ACK, so a mute (pre-ACK) subscriber never
        #: counts toward a quorum — not even for seqno 0.
        self.acked = -1


class ReplicationPublisher:
    """Stream a journal directory's checkpoint + tail to subscribers.

    Runs next to any journal writer (the primary's server process, or a
    replica's — replicas publish too, which is what makes promotion a
    retarget rather than a rebuild).  ``owner`` handles control frames:
    an object with ``info()``, ``promote(min_seqno)`` and
    ``retarget(host, port)`` methods, each returning a JSON-ready dict.
    ``watermark`` reports the writer's applied sequence number for
    heartbeats (defaults to the shipped position).

    Each subscription also *reads*: ACK frames coming back name the
    highest seqno the subscriber has made durable, tracked per
    subscriber and exposed through :meth:`insync_count` /
    :meth:`acked_watermarks`.  :meth:`wait_quorum` blocks until at
    least ``min_insync`` subscribers have acked a seqno (or the timeout
    passes) — the primitive under the bounded-loss write path.
    """

    def __init__(
        self,
        directory: str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        owner=None,
        watermark: Optional[Callable[[], int]] = None,
        heartbeat_s: float = 0.2,
        poll_s: float = 0.02,
        batch: int = 512,
    ) -> None:
        self.directory = directory
        self.host = host
        self.port = port
        self.owner = owner
        self.watermark = watermark
        self.heartbeat_s = heartbeat_s
        self.poll_s = poll_s
        self.batch = batch
        self.subscribers = 0
        self.records_shipped = 0
        self.acks_received = 0
        self.checkpoints_shipped = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: set = set()
        self._subscriptions: Dict[object, _Subscription] = {}
        self._ack_event: Optional[asyncio.Event] = None

    async def start(self) -> Tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("publisher already started")
        self._server = await asyncio.start_server(
            self._serve, self.host, self.port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.port = port
        return host, port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        try:
            payload = await protocol.read_frame(reader, REPL_MAX_FRAME)
            if payload is None:
                return
            kind, operands = decode_frame(payload)
            if kind == FRAME_HELLO:
                peername = writer.get_extra_info("peername")
                peer = (
                    f"{peername[0]}:{peername[1]}"
                    if isinstance(peername, tuple) and len(peername) >= 2
                    else f"subscriber-{id(writer):x}"
                )
                subscription = _Subscription(peer)
                self._subscriptions[writer] = subscription
                self.subscribers += 1
                try:
                    await self._stream(reader, writer, operands[0], subscription)
                finally:
                    self.subscribers -= 1
                    self._subscriptions.pop(writer, None)
            else:
                await self._control(reader, writer, kind, operands)
        except (ConnectionError, OSError, ClusterError, asyncio.CancelledError):
            pass
        finally:
            self._tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _control(self, reader, writer, kind, operands) -> None:
        """Answer QUERY/PROMOTE/RETARGET frames until the client hangs up."""
        while True:
            if kind == FRAME_QUERY:
                info = self.owner.info() if self.owner else self.describe()
            elif kind == FRAME_PROMOTE:
                info = (
                    self.owner.promote(operands[0])
                    if self.owner
                    else {"error": "no promotable owner"}
                )
            elif kind == FRAME_RETARGET:
                info = (
                    self.owner.retarget(*operands)
                    if self.owner
                    else {"error": "no retargetable owner"}
                )
            else:
                raise ClusterError(
                    f"frame type {kind} is not a control request"
                )
            writer.write(protocol.frame_bytes(encode_info(info)))
            await writer.drain()
            payload = await protocol.read_frame(reader, REPL_MAX_FRAME)
            if payload is None:
                return
            kind, operands = decode_frame(payload)

    async def _send_checkpoint(self, writer) -> Tuple[int, int]:
        """Ship the newest checkpoint; returns ``(seqno, new chain)``."""
        seqno, image = await asyncio.to_thread(
            _checkpoint_image, self.directory
        )
        writer.write(protocol.frame_bytes(encode_checkpoint(seqno, image)))
        await writer.drain()
        self.checkpoints_shipped += 1
        return seqno, zlib.crc32(image)

    async def _stream(
        self,
        reader,
        writer,
        from_seqno: int,
        subscription: _Subscription,
    ) -> None:
        """One subscriber: sync, then follow the journal tail forever.

        A companion task drains the subscriber's ACK frames off
        ``reader`` and advances its acked watermark; after every
        shipped record batch a HEARTBEAT follows immediately, because
        subscribers group-commit held records (and ack) on heartbeats —
        that prompt commit is what keeps quorum-gated write latency at
        about one round trip instead of one ``heartbeat_s``.
        """
        ack_task = asyncio.create_task(
            self._drain_acks(reader, subscription)
        )
        try:
            await self._ship(writer, from_seqno)
        finally:
            ack_task.cancel()
            try:
                await ack_task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _drain_acks(
        self, reader, subscription: _Subscription
    ) -> None:
        """Advance one subscriber's acked watermark from its ACK frames.

        Anything other than an ACK coming upstream ends the drain (the
        watermark then simply stops advancing, which is also how
        pre-ACK subscribers interoperate).
        """
        from repro import obs

        while True:
            payload = await protocol.read_frame(reader, REPL_MAX_FRAME)
            if payload is None:
                return
            try:
                kind, operands = decode_frame(payload)
            except ClusterError:
                return
            if kind != FRAME_ACK:
                return
            if operands[0] > subscription.acked:
                subscription.acked = operands[0]
            self.acks_received += 1
            mark = (
                self.watermark()
                if self.watermark is not None
                else subscription.acked
            )
            obs.registry().gauge(
                "repro_cluster_replication_lag",
                "Publisher watermark minus the subscriber's acked seqno.",
                peer=subscription.peer,
            ).set(float(max(0, mark - subscription.acked)))
            if self._ack_event is not None:
                self._ack_event.set()

    async def _ship(self, writer, from_seqno: int) -> None:
        from repro.robust.journal import encode_update

        chain = 0
        if from_seqno == SYNC_FROM_SCRATCH:
            _, checkpoint_path = newest_checkpoint(self.directory)
            if checkpoint_path is not None:
                position, chain = await self._send_checkpoint(writer)
            else:
                position = 0  # empty journal: stream from the beginning
        else:
            position = from_seqno
        tailer = JournalTailer(self.directory, after_seqno=position)
        loop = asyncio.get_running_loop()
        last_beat = loop.time()
        while True:
            try:
                records = await asyncio.to_thread(tailer.poll, self.batch)
            except JournalGap:
                # The tail this subscriber needs was truncated by a
                # checkpoint: re-sync it from that checkpoint.
                position, chain = await self._send_checkpoint(writer)
                tailer = JournalTailer(self.directory, after_seqno=position)
                continue
            if records:
                for seqno, update in records:
                    payload = encode_update(update)
                    chain = chain_crc(payload, chain)
                    writer.write(
                        protocol.frame_bytes(
                            encode_record(seqno, chain, payload)
                        )
                    )
                    position = seqno
                await writer.drain()
                self.records_shipped += len(records)
                # Force the next heartbeat out immediately (see
                # ``_stream``): subscribers commit-and-ack on beats.
                last_beat = -self.heartbeat_s
            else:
                await asyncio.sleep(self.poll_s)
            now = loop.time()
            if now - last_beat >= self.heartbeat_s:
                mark = (
                    self.watermark() if self.watermark is not None else position
                )
                writer.write(protocol.frame_bytes(encode_heartbeat(mark)))
                await writer.drain()
                last_beat = now

    # -- quorum state ------------------------------------------------------

    def insync_count(self, seqno: int) -> int:
        """How many live subscribers have acked ``seqno`` or beyond."""
        return sum(
            1 for sub in self._subscriptions.values() if sub.acked >= seqno
        )

    def acked_watermarks(self) -> Dict[str, int]:
        """``{peer: highest acked seqno}`` per live subscription.

        ``-1`` marks a subscriber that has not acked anything yet.
        """
        return {
            sub.peer: sub.acked for sub in self._subscriptions.values()
        }

    async def wait_quorum(
        self, seqno: int, min_insync: int, timeout: float
    ) -> bool:
        """Block until ``min_insync`` subscribers have acked ``seqno``.

        Returns ``True`` when the quorum forms within ``timeout``
        seconds and ``False`` otherwise.  ``min_insync <= 0`` is
        trivially satisfied — that is plain asynchronous replication.
        """
        if min_insync <= 0 or self.insync_count(seqno) >= min_insync:
            return True
        if self._ack_event is None:
            self._ack_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            self._ack_event.clear()
            if self.insync_count(seqno) >= min_insync:
                return True
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            try:
                await asyncio.wait_for(self._ack_event.wait(), remaining)
            except asyncio.TimeoutError:
                return self.insync_count(seqno) >= min_insync

    def describe(self) -> dict:
        checkpoint_seqno, _ = newest_checkpoint(self.directory)
        return {
            "role": "publisher",
            "directory": self.directory,
            "subscribers": self.subscribers,
            "records_shipped": self.records_shipped,
            "acks_received": self.acks_received,
            "acked": self.acked_watermarks(),
            "checkpoints_shipped": self.checkpoints_shipped,
            "checkpoint_seqno": checkpoint_seqno,
        }


# -- the quorum gate -----------------------------------------------------------


@dataclass(frozen=True)
class QuorumConfig:
    """Durability policy for the replicated write path.

    ``min_insync`` subscribers must ack each applied batch's final
    seqno before the client sees success; ``on_timeout`` picks the
    degraded behaviour when they have not within ``timeout_s``:

    - ``"shed"`` — fail the write with the retryable
      ``STATUS_QUORUM_TIMEOUT``.  The batch *is* applied and journaled
      locally; route updates are idempotent, so the client's retry is
      safe whichever way the race went.
    - ``"degrade"`` — acknowledge the write anyway (asynchronous
      replication) while the ``repro_cluster_degraded`` gauge is up,
      until a quorum is observed again.

    ``min_insync=0`` disables the gate entirely.
    """

    min_insync: int = 1
    timeout_s: float = 1.0
    on_timeout: str = "shed"

    def __post_init__(self) -> None:
        if self.min_insync < 0:
            raise ClusterError(
                f"min_insync must be >= 0, got {self.min_insync}"
            )
        if self.timeout_s <= 0:
            raise ClusterError(
                f"quorum timeout must be positive, got {self.timeout_s}"
            )
        if self.on_timeout not in ("shed", "degrade"):
            raise ClusterError(
                f"on_timeout must be 'shed' or 'degrade', "
                f"got {self.on_timeout!r}"
            )


class QuorumGate:
    """Apply a :class:`QuorumConfig` against a publisher's acked state.

    ``await wait(seqno)`` returns one of:

    - ``"ok"`` — the quorum acked in time (this also exits degraded
      mode when the ``degrade`` policy had entered it);
    - ``"timeout"`` — the quorum missed the deadline and the policy is
      ``shed``: the caller should fail the write retryably;
    - ``"degraded"`` — the quorum is missing and the policy is
      ``degrade``: the caller proceeds asynchronously.  Degraded mode
      never blocks the write path again; each write probes the acked
      state non-blockingly so the gate recovers (and the
      ``repro_cluster_degraded`` gauge drops) as soon as a quorum
      reappears.
    """

    def __init__(
        self, publisher: ReplicationPublisher, config: QuorumConfig
    ) -> None:
        self.publisher = publisher
        self.config = config
        self.degraded = False
        self.waits = 0
        self.timeouts = 0
        #: Seqno of the previous gated write — the degraded-mode
        #: recovery probe.  The *current* write's seqno can never be
        #: acked at probe time, but a quorum that has caught up will
        #: have acked the previous one.
        self._probe_seqno = 0

    def _set_degraded(self, value: bool) -> None:
        from repro import obs

        if value == self.degraded:
            return
        self.degraded = value
        registry = obs.registry()
        registry.gauge(
            "repro_cluster_degraded",
            "1 while the quorum write path is degraded to async.",
        ).set(1.0 if value else 0.0)
        registry.counter(
            "repro_cluster_degraded_transitions_total",
            "Entries into and exits from quorum-degraded mode.",
            direction="enter" if value else "exit",
        ).inc()

    async def wait(self, seqno: int) -> str:
        from repro import obs
        from repro.obs.metrics import LATENCY_US_BUCKETS

        config = self.config
        if config.min_insync <= 0:
            return "ok"
        self.waits += 1
        started = time.perf_counter()
        if (
            self.degraded
            and self.publisher.insync_count(self._probe_seqno)
            < config.min_insync
        ):
            # Still degraded: never block the write path again until
            # the non-blocking probe sees the quorum back in sync.
            met = False
        else:
            met = await self.publisher.wait_quorum(
                seqno, config.min_insync, config.timeout_s
            )
        self._probe_seqno = seqno
        obs.registry().histogram(
            "repro_cluster_quorum_wait_us",
            "Time OP_UPDATE spent waiting for the replica quorum.",
            buckets=LATENCY_US_BUCKETS,
        ).observe((time.perf_counter() - started) * 1e6)
        if met:
            self._set_degraded(False)
            return "ok"
        self.timeouts += 1
        if config.on_timeout == "degrade":
            self._set_degraded(True)
            return "degraded"
        return "timeout"

    def describe(self) -> dict:
        return {
            "min_insync": self.config.min_insync,
            "timeout_s": self.config.timeout_s,
            "on_timeout": self.config.on_timeout,
            "degraded": self.degraded,
            "waits": self.waits,
            "timeouts": self.timeouts,
        }


# -- client helpers ------------------------------------------------------------


async def subscribe(
    host: str, port: int, from_seqno: int
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a subscription; the caller reads frames with
    :func:`repro.server.protocol.read_frame` (``REPL_MAX_FRAME``)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(protocol.frame_bytes(encode_hello(from_seqno)))
    await writer.drain()
    return reader, writer


async def _control_request(
    host: str, port: int, payload: bytes, timeout: float
) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(protocol.frame_bytes(payload))
        await writer.drain()
        frame = await asyncio.wait_for(
            protocol.read_frame(reader, REPL_MAX_FRAME), timeout
        )
        if frame is None:
            raise ClusterError(f"{host}:{port} closed without answering")
        kind, operands = decode_frame(frame)
        if kind != FRAME_INFO:
            raise ClusterError(f"expected INFO, got frame type {kind}")
        return operands[0]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def query_info(host: str, port: int, timeout: float = 5.0) -> dict:
    """One QUERY round-trip: the node's role/seqno/lag description."""
    return await _control_request(host, port, encode_query(), timeout)


async def request_promote(
    host: str, port: int, min_seqno: int, timeout: float = 30.0
) -> dict:
    """Ask a replica to become primary if it has applied ``min_seqno``."""
    return await _control_request(
        host, port, encode_promote(min_seqno), timeout
    )


async def request_retarget(
    host: str, port: int, new_host: str, new_port: int, timeout: float = 30.0
) -> dict:
    """Point a replica's follow loop at a different publisher."""
    return await _control_request(
        host, port, encode_retarget(new_host, new_port), timeout
    )


__all__ = [
    "FRAME_ACK",
    "FRAME_CHECKPOINT",
    "FRAME_HEARTBEAT",
    "FRAME_HELLO",
    "FRAME_INFO",
    "FRAME_PROMOTE",
    "FRAME_QUERY",
    "FRAME_RECORD",
    "FRAME_RETARGET",
    "QuorumConfig",
    "QuorumGate",
    "REPL_MAX_FRAME",
    "SYNC_FROM_SCRATCH",
    "ReplicationPublisher",
    "chain_crc",
    "decode_frame",
    "encode_ack",
    "encode_checkpoint",
    "encode_heartbeat",
    "encode_hello",
    "encode_info",
    "encode_promote",
    "encode_query",
    "encode_record",
    "encode_retarget",
    "query_info",
    "request_promote",
    "request_retarget",
    "subscribe",
]
