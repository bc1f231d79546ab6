"""The benchmark's own load generator: one process, one thread, one selector.

The repository's ``LoadGenerator`` times each request from its actual
send, which hides a stalled sender; this client times every request from
the instant it was **due**, and records how late it was actually sent.
It reuses the service's framing (:mod:`repro.server.protocol`) and
pre-encodes every request before the clock starts.

``select.select`` is used on purpose: its timeout has microsecond
resolution, where ``epoll`` rounds up to whole milliseconds.
"""

from __future__ import annotations

import gc
import json
import os
import select
import socket
import struct
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.server import protocol

_LEN = struct.Struct("!I")
_ID = struct.Struct("!I")
_ID_AT = 8  # byte offset of the request id in a framed request

#: Lookup request ids count up from 1; control and update requests use
#: ids from here up, so a trace can tell them apart.
CONTROL_IDS = 1 << 30

#: Seconds without any response, while requests are outstanding, after
#: which the outstanding requests fail as timeouts.
STALL_TIMEOUT_S = 30.0


@dataclass
class Request:
    """One request and, once answered, its outcome."""

    conn: int
    frame: bytes
    #: Checks the response payload; returns an error text or ``None``.
    check: Optional[Callable[[bytes], Optional[str]]] = None
    keys: int = 0
    control: bool = False
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    request_id: int = 0
    error: Optional[str] = None
    response: bytes = b""


def lookup_request(conn: int, keys, expected) -> Request:
    """A lookup whose answer must equal ``expected`` lane for lane."""
    want = expected.astype(">u4").tobytes()

    def check(payload: bytes) -> Optional[str]:
        if payload[1] != protocol.STATUS_OK:
            return f"status {payload[1]}: {payload[16 + len(want):]!r}"
        if payload[16:16 + len(want)] != want:
            return "answer differs from the oracle"
        return None

    frame = protocol.frame_bytes(protocol.encode_request(protocol.OP_LOOKUP4, 0, keys))
    return Request(conn, frame, check=check, keys=len(keys))


def update_request(conn: int, updates) -> Request:
    """An ``OP_UPDATE`` that must be acknowledged with nothing rejected."""

    def check(payload: bytes) -> Optional[str]:
        if payload[1] != protocol.STATUS_OK:
            return f"status {payload[1]}"
        report = json.loads(payload[16:].decode())
        if report.get("applied") != len(updates) or report.get("rejected"):
            return f"update ack {report}"
        return None

    frame = protocol.frame_bytes(
        protocol.encode_request(protocol.OP_UPDATE, 0, updates=updates)
    )
    return Request(conn, frame, check=check, control=True)


@dataclass
class Phase:
    """What one :meth:`Client.run` call sent and got back."""

    requests: List[Request] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    cpu_s: float = 0.0

    @property
    def cpu_util(self) -> float:
        return self.cpu_s / max(self.ended - self.started, 1e-9)


class Client:
    """Connections to one server plus the scheduling loop."""

    def __init__(self, port: int, connections: int, host: str = "127.0.0.1") -> None:
        self.socks = []
        try:
            for _ in range(connections):
                sock = socket.create_connection((host, port), timeout=10)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.setblocking(False)
                self.socks.append(sock)
        except OSError:
            self.close()
            raise
        self._conn_of = {s.fileno(): i for i, s in enumerate(self.socks)}
        self._inbuf = [bytearray() for _ in self.socks]
        self._outbuf = [bytearray() for _ in self.socks]
        self._lookup_ids = 0
        self._control_ids = CONTROL_IDS

    def close(self) -> None:
        for sock in self.socks:
            sock.close()
        self.socks = []

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def call(self, opcode: int) -> bytes:
        """One control request (ping, stats) on connection 0; its payload."""
        frame = protocol.frame_bytes(protocol.encode_request(opcode, 0))
        request = Request(0, frame, control=True)
        self.run([request])
        if request.error or not request.response:
            raise ConnectionError(f"opcode {opcode} failed: {request.error}")
        return request.response

    # -- the scheduling loop ------------------------------------------------

    def run(
        self,
        scheduled: List[Request],
        closed: Optional[Dict[int, List[Request]]] = None,
        window: int = 0,
        until: float = 0.0,
    ) -> Phase:
        """Send each of ``scheduled`` at ``start + request.due`` (open
        loop) and, on each connection in ``closed``, keep ``window``
        requests in flight, cycling through the given templates, until
        ``start + until`` (closed loop).  Returns once every request sent
        is answered or has timed out.

        The collector is off meanwhile: the loop makes no reference
        cycles, and a collection of this process's heap would stall the
        generator and be charged to the server as latency."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run(scheduled, closed or {}, window, until)
        finally:
            if enabled:
                gc.enable()

    def _run(self, scheduled, closed, window, until) -> Phase:
        clock = time.perf_counter
        start = clock()
        scheduled = sorted(scheduled, key=lambda r: r.due)
        for request in scheduled:
            request.due += start
        cycle = {conn: 0 for conn in closed}
        inflight = [0] * len(self.socks)
        pending: Dict[int, Request] = {}
        phase = Phase(started=start)
        cpu0 = sum(os.times()[:2])

        def send(request: Request, now: float) -> None:
            if request.control:
                self._control_ids += 1
                request.request_id = self._control_ids
            else:
                self._lookup_ids += 1
                request.request_id = self._lookup_ids
            request.sent = now
            pending[request.request_id] = request
            inflight[request.conn] += 1
            phase.requests.append(request)
            frame = request.frame
            self._outbuf[request.conn] += (
                frame[:_ID_AT] + _ID.pack(request.request_id) + frame[_ID_AT + 4:]
            )
            self._flush(request.conn)

        def refill(conn: int, now: float) -> None:
            templates = closed[conn]
            while now < start + until and inflight[conn] < window:
                template = templates[cycle[conn] % len(templates)]
                cycle[conn] += 1
                send(replace(template, due=now), now)

        now = clock()
        for conn in closed:
            refill(conn, now)
        i = 0
        last_progress = now
        while i < len(scheduled) or pending:
            now = clock()
            while i < len(scheduled) and scheduled[i].due <= now:
                send(scheduled[i], now)
                i += 1
            timeout = scheduled[i].due - now if i < len(scheduled) else 0.05
            readable, writable, _ = select.select(
                self.socks,
                [s for s, out in zip(self.socks, self._outbuf) if out],
                [],
                max(timeout, 0.0),
            )
            for sock in writable:
                self._flush(self._conn_of[sock.fileno()])
            now = clock()
            for sock in readable:
                conn = self._conn_of[sock.fileno()]
                for payload in self._read(conn):
                    request = pending.pop(_ID.unpack_from(payload, 4)[0], None)
                    if request is None:
                        raise ConnectionError("response to an unknown request id")
                    inflight[conn] -= 1
                    request.done = now
                    if request.check is None:
                        request.response = payload
                    else:
                        request.error = request.check(payload)
                    last_progress = now
                    if conn in closed:
                        refill(conn, now)
            if pending and now - last_progress > STALL_TIMEOUT_S:
                for request in pending.values():
                    request.error = "timeout"
                break
        phase.ended = clock()
        phase.cpu_s = sum(os.times()[:2]) - cpu0
        return phase

    # -- framing ------------------------------------------------------------

    def _flush(self, conn: int) -> None:
        out = self._outbuf[conn]
        try:
            sent = self.socks[conn].send(out)
        except BlockingIOError:
            return
        del out[:sent]

    def _read(self, conn: int) -> List[bytes]:
        try:
            chunk = self.socks[conn].recv(1 << 20)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf = self._inbuf[conn]
        buf += chunk
        payloads = []
        offset = 0
        while len(buf) - offset >= 4:
            (length,) = _LEN.unpack_from(buf, offset)
            if len(buf) - offset - 4 < length:
                break
            payloads.append(bytes(buf[offset + 4:offset + 4 + length]))
            offset += 4 + length
        del buf[:offset]
        return payloads
