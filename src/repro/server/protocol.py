"""The lookup service's length-prefixed binary wire protocol.

One TCP connection carries a stream of *frames* in both directions; a
frame is a 4-byte big-endian payload length followed by the payload.
Requests and responses are matched by a caller-chosen 32-bit
``request_id``, so a client may pipeline any number of requests on one
connection — that pipelining is what feeds the server's request
coalescer (see :mod:`repro.server.service`).

Request payload layout (big-endian throughout)::

    u8  version   (1 or 2)
    u8  opcode    (OP_*)
    u16 count     (number of keys; 0 for PING/STATS/RELOAD)
    u32 request_id
    u32 deadline_us  (version >= 2 only; 0 = no deadline)
    keys:  OP_LOOKUP4 -> count * u32 addresses
           OP_LOOKUP6 -> count * (u64 hi, u64 lo) address halves
           OP_UPDATE  -> count * 24-byte route-update payloads (the
                         journal record payload format of
                         :func:`repro.robust.journal.encode_update`)

Response payload layout (identical in versions 1 and 2)::

    u8  version   (echoes the request's version)
    u8  status    (STATUS_*)
    u16 count     (number of results)
    u32 request_id
    u64 generation  (the served table's RCU generation)
    count * u32 FIB indices
    trailing bytes: UTF-8 text (error message, or the STATS JSON body)

Version 2 adds the request ``deadline_us`` field: the client's latency
budget for this request, measured from server receipt.  The server sheds
a request whose budget expires while it queues
(:data:`STATUS_DEADLINE_EXCEEDED`) instead of serving a uselessly late
answer, and refuses admission outright under overload
(:data:`STATUS_OVERLOAD`).  The bump is backward compatible both ways: a
version-1 request is decoded with no deadline (never deadline-shed), and
every response echoes the request's version, so a version-1 client talks
to a version-2 server without change.

The IPv6 ``(hi, lo)`` split mirrors the batch-lookup key contract
(:func:`repro.lookup.base.normalize_batch_keys`): IPv4 keys travel as
machine words, 128-bit keys as two words — the same two columns the
Poptrie kernel descends (:func:`repro.lookup.kernels.split_v6`).

All functions raise :class:`~repro.errors.ProtocolError` on malformed
input; nothing here touches a socket except the two asyncio frame
helpers at the bottom.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProtocolError

PROTOCOL_VERSION = 2

#: Protocol versions this module can decode (see the version-2 notes in
#: the module docstring; version 1 lacks the request deadline field).
SUPPORTED_VERSIONS = frozenset({1, 2})

#: Hard ceiling on one frame's payload; a longer length prefix is treated
#: as a protocol violation, not an allocation request.
MAX_FRAME_BYTES = 1 << 20

#: Keys per lookup request (the u16 count field could carry 65535; the
#: service enforces this tighter bound so one request cannot monopolise a
#: coalesced batch).
MAX_KEYS_PER_REQUEST = 8192

OP_LOOKUP4 = 1   #: batch of IPv4 keys -> batch of FIB indices
OP_LOOKUP6 = 2   #: batch of IPv6 keys -> batch of FIB indices
OP_PING = 3      #: liveness probe; echoes the current table generation
OP_STATS = 4     #: server stats snapshot as a JSON text body
OP_RELOAD = 5    #: recompile from the server's RIB and hot-swap it in
OP_UPDATE = 6    #: batch of route updates -> journal, apply, hot-swap

OPCODES = frozenset(
    {OP_LOOKUP4, OP_LOOKUP6, OP_PING, OP_STATS, OP_RELOAD, OP_UPDATE}
)

STATUS_OK = 0
STATUS_BAD_REQUEST = 1    #: malformed or oversized request
STATUS_WRONG_FAMILY = 2   #: lookup family does not match the served table
STATUS_UNSUPPORTED = 3    #: opcode valid but not available (e.g. no RIB)
STATUS_SERVER_ERROR = 4   #: the lookup engine raised
STATUS_SHUTTING_DOWN = 5  #: request arrived while the server was stopping
STATUS_OVERLOAD = 6       #: admission refused: dispatcher queue is full
STATUS_DEADLINE_EXCEEDED = 7  #: deadline expired while the request queued
#: An OP_UPDATE batch was journaled locally but the configured replica
#: quorum (``serve --min-insync N``) did not acknowledge it in time.
STATUS_QUORUM_TIMEOUT = 8

#: Statuses a client may transparently retry (after backoff).  For
#: lookup statuses the request was never served, so retrying cannot
#: double-apply anything; STATUS_QUORUM_TIMEOUT means the update *is*
#: durable locally but under-replicated — route updates are idempotent
#: (re-announcing a route is a no-op state change, re-withdrawing a gone
#: route is skipped), so resending until the quorum acks is safe.
RETRYABLE_STATUSES = frozenset(
    {
        STATUS_OVERLOAD,
        STATUS_DEADLINE_EXCEEDED,
        STATUS_SHUTTING_DOWN,
        STATUS_QUORUM_TIMEOUT,
    }
)

_LEN = struct.Struct("!I")
_REQ_HEADER = struct.Struct("!BBHI")
_REQ_DEADLINE = struct.Struct("!I")
_RESP_HEADER = struct.Struct("!BBHIQ")
_V6_KEY = struct.Struct("!QQ")

_U64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Request:
    """One decoded request frame."""

    opcode: int
    request_id: int
    #: Normalized keys, ready for ``lookup_batch``: a uint64 array for
    #: OP_LOOKUP4, an object array of Python ints for OP_LOOKUP6.
    keys: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint64))
    #: Latency budget in microseconds from server receipt; 0 = none.
    #: Always 0 for version-1 requests, which have no deadline field.
    deadline_us: int = 0
    #: The protocol version the client spoke; responses echo it.
    version: int = PROTOCOL_VERSION
    #: Decoded route updates (OP_UPDATE only; empty otherwise).
    updates: Tuple = ()


@dataclass(frozen=True)
class Response:
    """One decoded response frame."""

    status: int
    request_id: int
    generation: int
    results: np.ndarray
    text: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def encode_request(
    opcode: int,
    request_id: int,
    keys: Sequence[int] = (),
    *,
    deadline_us: int = 0,
    version: int = PROTOCOL_VERSION,
    updates: Sequence = (),
) -> bytes:
    """Encode one request payload (without the length prefix).

    ``version=1`` emits the legacy header without the deadline field (and
    therefore rejects a nonzero ``deadline_us``) — used by the
    backward-compatibility tests to impersonate an old client.
    ``updates`` (``OP_UPDATE`` only) is a sequence of
    :class:`repro.data.updates.Update`.
    """
    if opcode not in OPCODES:
        raise ProtocolError(f"unknown opcode {opcode}")
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(f"cannot encode protocol version {version}")
    if not 0 <= deadline_us <= 0xFFFFFFFF:
        raise ProtocolError(f"deadline {deadline_us}us outside the u32 field")
    if version < 2 and deadline_us:
        raise ProtocolError("version-1 requests cannot carry a deadline")
    if updates and opcode != OP_UPDATE:
        raise ProtocolError(f"opcode {opcode} takes no updates")
    count = len(updates) if opcode == OP_UPDATE else len(keys)
    if count > 0xFFFF:
        raise ProtocolError(f"{count} keys exceed the u16 count field")
    header = _REQ_HEADER.pack(version, opcode, count, request_id & 0xFFFFFFFF)
    if version >= 2:
        header += _REQ_DEADLINE.pack(deadline_us)
    if opcode == OP_LOOKUP4:
        body = np.asarray(keys, dtype=">u4").tobytes()
    elif opcode == OP_LOOKUP6:
        body = b"".join(
            _V6_KEY.pack((int(k) >> 64) & _U64_MASK, int(k) & _U64_MASK)
            for k in keys
        )
    elif opcode == OP_UPDATE:
        from repro.robust.journal import encode_update

        if len(keys):
            raise ProtocolError("OP_UPDATE takes updates, not keys")
        try:
            body = b"".join(encode_update(update) for update in updates)
        except (AttributeError, ValueError) as error:
            raise ProtocolError(f"unencodable update: {error}") from None
    else:
        if count:
            raise ProtocolError(f"opcode {opcode} takes no keys")
        body = b""
    return header + body


def decode_request(payload: bytes) -> Request:
    """Decode one request payload into a :class:`Request`."""
    if len(payload) < _REQ_HEADER.size:
        raise ProtocolError(f"request header truncated ({len(payload)} bytes)")
    version, opcode, count, request_id = _REQ_HEADER.unpack_from(payload)
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(f"protocol version {version} not supported")
    if opcode not in OPCODES:
        raise ProtocolError(f"unknown opcode {opcode}")
    deadline_us = 0
    offset = _REQ_HEADER.size
    if version >= 2:
        if len(payload) < offset + _REQ_DEADLINE.size:
            raise ProtocolError("request deadline field truncated")
        (deadline_us,) = _REQ_DEADLINE.unpack_from(payload, offset)
        offset += _REQ_DEADLINE.size
    body = payload[offset:]
    if opcode == OP_LOOKUP4:
        expected = 4 * count
        if len(body) != expected:
            raise ProtocolError(
                f"IPv4 key block is {len(body)} bytes, expected {expected}"
            )
        keys = np.frombuffer(body, dtype=">u4").astype(np.uint64)
    elif opcode == OP_LOOKUP6:
        expected = 16 * count
        if len(body) != expected:
            raise ProtocolError(
                f"IPv6 key block is {len(body)} bytes, expected {expected}"
            )
        keys = np.empty(count, dtype=object)
        for i in range(count):
            hi, lo = _V6_KEY.unpack_from(body, 16 * i)
            keys[i] = (hi << 64) | lo
    elif opcode == OP_UPDATE:
        from repro.errors import JournalCorrupt
        from repro.robust.journal import decode_update

        size = 24  # fixed payload size of the journal record format
        expected = size * count
        if len(body) != expected:
            raise ProtocolError(
                f"update block is {len(body)} bytes, expected {expected}"
            )
        try:
            updates = tuple(
                decode_update(body[offset:offset + size])
                for offset in range(0, expected, size)
            )
        except JournalCorrupt as error:
            raise ProtocolError(f"bad update payload: {error}") from None
        return Request(
            opcode=opcode,
            request_id=request_id,
            deadline_us=deadline_us,
            version=version,
            updates=updates,
        )
    else:
        if body or count:
            raise ProtocolError(f"opcode {opcode} takes no keys")
        keys = np.empty(0, dtype=np.uint64)
    return Request(
        opcode=opcode,
        request_id=request_id,
        keys=keys,
        deadline_us=deadline_us,
        version=version,
    )


def encode_response(
    request_id: int,
    status: int = STATUS_OK,
    generation: int = 0,
    results: Sequence[int] = (),
    text: str = "",
    version: int = PROTOCOL_VERSION,
) -> bytes:
    """Encode one response payload (without the length prefix).

    ``version`` echoes the request's version so old clients see the
    version they spoke (the response layout itself is version-invariant).
    """
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(f"cannot encode protocol version {version}")
    count = len(results)
    if count > 0xFFFF:
        raise ProtocolError(f"{count} results exceed the u16 count field")
    header = _RESP_HEADER.pack(
        version,
        status,
        count,
        request_id & 0xFFFFFFFF,
        generation & 0xFFFFFFFFFFFFFFFF,
    )
    body = np.asarray(results, dtype=">u4").tobytes() if count else b""
    return header + body + text.encode("utf-8")


def decode_response(payload: bytes) -> Response:
    """Decode one response payload into a :class:`Response`."""
    if len(payload) < _RESP_HEADER.size:
        raise ProtocolError(
            f"response header truncated ({len(payload)} bytes)"
        )
    version, status, count, request_id, generation = _RESP_HEADER.unpack_from(
        payload
    )
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(f"protocol version {version} not supported")
    body = payload[_RESP_HEADER.size:]
    expected = 4 * count
    if len(body) < expected:
        raise ProtocolError(
            f"result block is {len(body)} bytes, expected at least {expected}"
        )
    results = np.frombuffer(body[:expected], dtype=">u4").astype(np.uint32)
    try:
        text = body[expected:].decode("utf-8")
    except UnicodeDecodeError as error:
        raise ProtocolError(f"response text is not UTF-8: {error}") from None
    return Response(
        status=status,
        request_id=request_id,
        generation=generation,
        results=results,
        text=text,
    )


# -- asyncio frame transport ---------------------------------------------------


def frame_bytes(payload: bytes) -> bytes:
    """The on-wire bytes of one frame: length prefix plus payload."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _LEN.pack(len(payload)) + payload


def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Queue one length-prefixed frame on ``writer`` (caller drains)."""
    writer.write(frame_bytes(payload))


async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME_BYTES
) -> Optional[bytes]:
    """Read one frame; ``None`` on clean EOF between frames.

    EOF in the middle of a frame — or a length prefix exceeding
    ``max_frame`` — raises :class:`~repro.errors.ProtocolError`.
    """
    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid length prefix") from None
    (length,) = _LEN.unpack(prefix)
    if length == 0 or length > max_frame:
        raise ProtocolError(f"frame length {length} outside 1..{max_frame}")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            f"connection closed mid frame ({len(error.partial)}/{length} bytes)"
        ) from None


def family_opcode(width: int) -> int:
    """The lookup opcode for an address family (32 -> v4, 128 -> v6)."""
    if width == 32:
        return OP_LOOKUP4
    if width == 128:
        return OP_LOOKUP6
    raise ProtocolError(f"no lookup opcode for width-{width} addresses")


def opcode_width(opcode: int) -> Tuple[int, ...]:
    """The address widths a lookup opcode can serve."""
    if opcode == OP_LOOKUP4:
        return (32,)
    if opcode == OP_LOOKUP6:
        return (128,)
    return ()
