"""The asyncio route-lookup server with per-tick request coalescing.

Architecture (one event loop, no thread per connection):

- Each TCP connection runs a reader coroutine that parses frames
  (:mod:`repro.server.protocol`) and spawns one task per request, so a
  client may pipeline requests on a single connection.
- Lookup requests do **not** call the engine themselves.  They append
  ``(keys, future)`` to a shared queue and await the future.  A single
  dispatcher coroutine wakes, lets the coalescing window
  (``max_wait_us``) pass, then gathers every pending request — up to
  ``max_batch`` keys — into **one** numpy ``lookup_batch`` call and
  fans the result slices back out to the futures.
- The batch executes under :meth:`TableHandle.read`, so a concurrent
  hot swap (:meth:`TableHandle.swap_async`) drains behind it and no
  request ever observes a half-published table.

The coalescing knobs are the live form of the paper's Section 2
trade-off: "the large packet batch size is likely to lead to the higher
worst case packet forwarding latency".  ``max_wait_us=0`` serves every
request in its own batch (minimum latency, maximum interpreter
overhead); larger windows amortise the per-batch cost across more
concurrent requests at the price of queueing delay — the
``repro_server_coalesced_requests`` histogram shows where a deployment
actually lands.

Overload control bounds that queueing delay.  Admission is refused
(:data:`~repro.server.protocol.STATUS_OVERLOAD`) once the dispatcher
queue holds ``max_pending_requests`` requests or ``max_pending_keys``
keys, so a burst beyond capacity is answered immediately instead of
growing the queue without bound.  Version-2 requests may carry a
``deadline_us`` budget; a queued request whose budget expires before the
dispatcher reaches it is shed
(:data:`~repro.server.protocol.STATUS_DEADLINE_EXCEEDED`) rather than
served uselessly late — under overload the server spends its cycles on
answers somebody still wants.
"""

from __future__ import annotations

import asyncio
import json
import math
import selectors
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.robust import faults
from repro.server import protocol
from repro.server.handle import TableHandle
from repro.server.pipeline import observe_update_latency


class _DeadlineExceeded(Exception):
    """Internal: a queued request's deadline expired before dispatch."""


#: The event loop's timeout granularity in microseconds.  ``epoll`` and
#: ``poll`` wait in whole milliseconds, and CPython's selectors round a
#: timeout up to the next one; ``kqueue`` and ``select`` take finer ones.
SELECTOR_GRANULARITY_US = (
    1000.0
    if selectors.DefaultSelector.__name__
    in ("EpollSelector", "PollSelector", "DevpollSelector")
    else 1.0
)


def effective_wait_us(max_wait_us: float) -> float:
    """The shortest coalescing window the event loop can wait for a
    ``max_wait_us`` setting: rounded up to :data:`SELECTOR_GRANULARITY_US`
    (0 stays 0: no wait).  With epoll a 200 µs window waits at least
    1,000 µs."""
    granularity = SELECTOR_GRANULARITY_US
    return math.ceil(max(max_wait_us, 0.0) / granularity) * granularity


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one :class:`LookupServer`."""

    host: str = "127.0.0.1"
    #: 0 = let the kernel pick an ephemeral port (see :meth:`LookupServer.start`).
    port: int = 0
    #: Keys per coalesced ``lookup_batch`` call; pending requests beyond
    #: this run in the next tick.
    max_batch: int = 8192
    #: Coalescing window after the first request of a tick arrives, in
    #: microseconds.  0 disables coalescing delay entirely.  The loop
    #: waits at least :func:`effective_wait_us` of it.
    max_wait_us: float = 200.0
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    max_keys_per_request: int = protocol.MAX_KEYS_PER_REQUEST
    #: Admission bound: lookup requests queued for the dispatcher.  A
    #: request arriving with the queue at this depth is refused with
    #: STATUS_OVERLOAD instead of queued.
    max_pending_requests: int = 1024
    #: Admission bound on total queued keys (the actual work unit); the
    #: same STATUS_OVERLOAD refusal when exceeded.
    max_pending_keys: int = 1 << 16


@dataclass
class ServerStats:
    """Plain counters mirrored into :mod:`repro.obs` when it is enabled."""

    requests: int = 0
    responses: int = 0
    errors: int = 0
    batches: int = 0
    batched_requests: int = 0
    batched_keys: int = 0
    max_coalesced: int = 0
    connections: int = 0
    reloads: int = 0
    #: OP_RELOAD requests whose rebuild or swap raised; the previous
    #: table generation kept serving.
    reload_failures: int = 0
    #: Route updates applied through OP_UPDATE requests.
    updates_applied: int = 0
    #: OP_UPDATE updates the update engine rejected (bad withdrawals,
    #: out-of-range next hops); the rest of the batch still applied.
    updates_rejected: int = 0
    #: Requests refused at admission (queue full).
    shed_overload: int = 0
    #: Requests shed because their deadline expired while queued.
    shed_deadline: int = 0
    #: OP_UPDATE batches journaled locally but refused (retryably)
    #: because the replica quorum missed its deadline.
    shed_quorum: int = 0
    #: Responses destroyed by an armed FaultPlan (chaos testing only).
    dropped_responses: int = 0
    torn_responses: int = 0


class _Pending:
    """One lookup request waiting for the dispatcher."""

    __slots__ = ("keys", "future", "enqueued", "deadline")

    def __init__(
        self,
        keys,
        future,
        enqueued: float,
        deadline: Optional[float] = None,
    ) -> None:
        self.keys = keys
        self.future = future
        self.enqueued = enqueued
        #: Absolute ``perf_counter`` time after which serving this
        #: request is pointless, or ``None`` (version-1 / no budget).
        self.deadline = deadline


class LookupServer:
    """Serve ``lookup_batch`` over TCP for any registered algorithm.

    ``handle`` is the :class:`TableHandle` being served; ``rebuild`` is
    an optional zero-argument callable returning a fresh structure (used
    by the OP_RELOAD opcode to recompile from the server's RIB and swap
    it in — the CLI wires it to the registry entry of the served
    algorithm).  ``apply_updates`` is an optional callable taking a
    sequence of :class:`repro.data.updates.Update` and returning a
    JSON-ready dict (at least ``applied``/``rejected``) — in practice an
    :class:`~repro.server.pipeline.UpdatePipeline`; the OP_UPDATE opcode
    runs it in a worker thread, one message at a time.
    """

    def __init__(
        self,
        handle: TableHandle,
        config: Optional[ServerConfig] = None,
        rebuild=None,
        apply_updates=None,
    ) -> None:
        self.handle = handle
        self.config = config or ServerConfig()
        self.rebuild = rebuild
        self.apply_updates = apply_updates
        #: Optional :class:`repro.cluster.replication.QuorumGate`; when
        #: set, OP_UPDATE acks are held until the replica quorum acks
        #: (attached post-construction by the serve CLI / Replica, which
        #: create the publisher after the server).
        self.quorum = None
        self._update_lock: Optional[asyncio.Lock] = None
        self.stats = ServerStats()
        self._pending: deque = deque()
        self._pending_keys = 0
        self._wakeup: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._stopping = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._stopping = False
        self._wakeup = asyncio.Event()
        self._update_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        """Stop accepting, fail queued requests, close connections."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        while self._pending:
            item = self._pending.popleft()
            if not item.future.done():
                item.future.set_exception(
                    ConnectionError("server shutting down")
                )
        self._pending_keys = 0
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``python -m repro serve`` main)."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self.stats.connections += 1
        self._gauge_inflight(0)
        write_lock = asyncio.Lock()
        request_tasks: set = set()
        try:
            while True:
                payload = await protocol.read_frame(
                    reader, self.config.max_frame_bytes
                )
                if payload is None:
                    break
                try:
                    request = protocol.decode_request(payload)
                except ProtocolError as error:
                    # Unparseable frame: report and drop the connection
                    # (framing may be corrupt from here on).
                    await self._respond(
                        writer,
                        write_lock,
                        protocol.encode_response(
                            0, protocol.STATUS_BAD_REQUEST, text=str(error)
                        ),
                    )
                    break
                self.stats.requests += 1
                self._count("repro_server_requests_total", opcode=request.opcode)
                sub = asyncio.create_task(
                    self._serve_request(request, writer, write_lock)
                )
                request_tasks.add(sub)
                sub.add_done_callback(request_tasks.discard)
        except (ConnectionError, ProtocolError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # stop() cancels connection handlers while clients may still
            # be attached.  Finishing normally matters: asyncio's stream
            # machinery calls task.exception() on this task from a plain
            # loop callback, which re-raises CancelledError and logs a
            # spurious "Exception in callback" at every shutdown.
            pass
        finally:
            if request_tasks:
                await asyncio.gather(*request_tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._conn_tasks.discard(task)

    async def _serve_request(
        self,
        request: protocol.Request,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        start = time.perf_counter()
        try:
            payload = await self._execute(request)
        except Exception as error:  # engine failure — never kill the server
            self.stats.errors += 1
            payload = protocol.encode_response(
                request.request_id,
                protocol.STATUS_SERVER_ERROR,
                generation=self.handle.generation,
                text=f"{type(error).__name__}: {error}",
                version=request.version,
            )
        self._observe_latency(start)
        await self._respond(writer, write_lock, payload)

    async def _execute(self, request: protocol.Request) -> bytes:
        opcode = request.opcode
        if opcode in (protocol.OP_LOOKUP4, protocol.OP_LOOKUP6):
            return await self._execute_lookup(request)
        if opcode == protocol.OP_PING:
            return protocol.encode_response(
                request.request_id,
                generation=self.handle.generation,
                version=request.version,
            )
        if opcode == protocol.OP_STATS:
            return protocol.encode_response(
                request.request_id,
                generation=self.handle.generation,
                text=json.dumps(self.describe()),
                version=request.version,
            )
        if opcode == protocol.OP_RELOAD:
            return await self._execute_reload(request)
        if opcode == protocol.OP_UPDATE:
            return await self._execute_update(request)
        raise ProtocolError(f"unknown opcode {opcode}")  # pragma: no cover

    async def _execute_lookup(self, request: protocol.Request) -> bytes:
        width = getattr(self.handle.structure, "width", 32)
        if width not in protocol.opcode_width(request.opcode):
            self.stats.errors += 1
            return protocol.encode_response(
                request.request_id,
                protocol.STATUS_WRONG_FAMILY,
                generation=self.handle.generation,
                text=f"served table holds width-{width} addresses",
                version=request.version,
            )
        if len(request.keys) > self.config.max_keys_per_request:
            self.stats.errors += 1
            return protocol.encode_response(
                request.request_id,
                protocol.STATUS_BAD_REQUEST,
                generation=self.handle.generation,
                text=(
                    f"{len(request.keys)} keys exceed the per-request "
                    f"limit of {self.config.max_keys_per_request}"
                ),
                version=request.version,
            )
        if self._stopping:
            return protocol.encode_response(
                request.request_id,
                protocol.STATUS_SHUTTING_DOWN,
                generation=self.handle.generation,
                text="server shutting down",
                version=request.version,
            )
        # Bounded admission: refuse immediately rather than queue beyond
        # what the dispatcher can drain — the client's backoff is the
        # system's only stable response to sustained overload.
        if (
            len(self._pending) >= self.config.max_pending_requests
            or self._pending_keys + len(request.keys)
            > self.config.max_pending_keys
        ):
            self.stats.shed_overload += 1
            self._count_shed("overload")
            return protocol.encode_response(
                request.request_id,
                protocol.STATUS_OVERLOAD,
                generation=self.handle.generation,
                text=(
                    f"dispatcher queue full "
                    f"({len(self._pending)} requests, "
                    f"{self._pending_keys} keys pending)"
                ),
                version=request.version,
            )
        now = time.perf_counter()
        deadline = (
            now + request.deadline_us / 1e6 if request.deadline_us else None
        )
        future = asyncio.get_running_loop().create_future()
        self._pending.append(_Pending(request.keys, future, now, deadline))
        self._pending_keys += len(request.keys)
        self._gauge_inflight(len(self._pending))
        self._wakeup.set()
        try:
            results, generation = await future
        except _DeadlineExceeded:
            return protocol.encode_response(
                request.request_id,
                protocol.STATUS_DEADLINE_EXCEEDED,
                generation=self.handle.generation,
                text=f"deadline of {request.deadline_us}us expired in queue",
                version=request.version,
            )
        return protocol.encode_response(
            request.request_id,
            generation=generation,
            results=results,
            version=request.version,
        )

    async def _execute_reload(self, request: protocol.Request) -> bytes:
        if self.rebuild is None:
            return protocol.encode_response(
                request.request_id,
                protocol.STATUS_UNSUPPORTED,
                generation=self.handle.generation,
                text="server has no RIB to rebuild from",
                version=request.version,
            )
        try:
            # Under the update lock: the rebuild compiles the RIB the
            # update engine writes, so it must not see a message that is
            # staged but not yet journaled, or half published.
            async with self._update_lock:
                structure = await asyncio.to_thread(self.rebuild)
                generation = await self.handle.swap_async(structure)
        except Exception as error:
            # Failed rebuild must not disturb service: the previous
            # generation keeps serving, the client learns why.
            self.stats.reload_failures += 1
            self._count("repro_server_reload_failures_total")
            return protocol.encode_response(
                request.request_id,
                protocol.STATUS_SERVER_ERROR,
                generation=self.handle.generation,
                text=f"reload failed: {type(error).__name__}: {error}",
                version=request.version,
            )
        self.stats.reloads += 1
        return protocol.encode_response(
            request.request_id, generation=generation, version=request.version
        )

    async def _execute_update(self, request: protocol.Request) -> bytes:
        if self.apply_updates is None:
            return protocol.encode_response(
                request.request_id,
                protocol.STATUS_UNSUPPORTED,
                generation=self.handle.generation,
                text="server has no writable update engine "
                     "(start with --journal to accept updates)",
                version=request.version,
            )
        if self._stopping:
            return protocol.encode_response(
                request.request_id,
                protocol.STATUS_SHUTTING_DOWN,
                generation=self.handle.generation,
                text="server shutting down",
                version=request.version,
            )
        started = time.perf_counter()
        # One update batch at a time: the journal and the update engine
        # are single-writer; lookups keep flowing concurrently because
        # the apply runs in a thread and publishes via the RCU handle.
        async with self._update_lock:
            report = await asyncio.to_thread(
                self.apply_updates, request.updates
            )
        self.stats.updates_applied += int(report.get("applied", 0))
        self.stats.updates_rejected += int(report.get("rejected", 0))
        self._count("repro_server_updates_total", kind="applied")
        # The whole message server-side: the wait for the update lock
        # plus every pipeline stage.
        observe_update_latency(
            self.handle.name, "total", (time.perf_counter() - started) * 1e6
        )
        # Durability policy (``serve --min-insync N``): the batch is
        # journaled and applied locally by now; hold the client's ack
        # until the configured replica quorum has acked the seqno.
        seqno = int(report.get("seqno", 0))
        if self.quorum is not None and seqno:
            outcome = await self.quorum.wait(seqno)
            if outcome == "timeout":
                self.stats.shed_quorum += 1
                self._count_shed("quorum")
                return protocol.encode_response(
                    request.request_id,
                    protocol.STATUS_QUORUM_TIMEOUT,
                    generation=self.handle.generation,
                    text=json.dumps({**report, "quorum": "timeout"}),
                    version=request.version,
                )
            if outcome == "degraded":
                report["quorum"] = "degraded"
        return protocol.encode_response(
            request.request_id,
            generation=self.handle.generation,
            text=json.dumps(report),
            version=request.version,
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        payload: bytes,
    ) -> None:
        fate = faults.connection_fault()
        if fate is not None:
            await self._destroy_response(writer, write_lock, payload, fate)
            return
        try:
            async with write_lock:
                protocol.write_frame(writer, payload)
                await writer.drain()
            self.stats.responses += 1
            self._count(
                "repro_server_responses_total", status=payload[1]
            )
        except (ConnectionError, OSError):
            pass  # client went away; nothing to tell it

    async def _destroy_response(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        payload: bytes,
        fate: Tuple[str, int],
    ) -> None:
        """Chaos path: an armed FaultPlan killed this response.

        ``("drop", _)`` closes the connection before any byte of the
        response; ``("torn", n)`` writes only the first ``n`` bytes of
        the frame and then closes — the client sees a connection lost
        mid-frame, exactly as if the server died mid-send.
        """
        action, nbytes = fate
        try:
            async with write_lock:
                if action == "torn":
                    frame = protocol.frame_bytes(payload)
                    writer.write(frame[: min(nbytes, len(frame) - 1)])
                    await writer.drain()
                    self.stats.torn_responses += 1
                else:
                    self.stats.dropped_responses += 1
                writer.close()
        except (ConnectionError, OSError):
            pass

    # -- the coalescing dispatcher -------------------------------------------

    async def _dispatch_loop(self) -> None:
        window = self.config.max_wait_us / 1e6
        while True:
            if not self._pending:
                self._wakeup.clear()
                await self._wakeup.wait()
            # The coalescing window: give concurrent requests one tick to
            # pile in behind the first arrival, unless a full batch is
            # already waiting.
            if window > 0 and self._pending_keys < self.config.max_batch:
                await asyncio.sleep(window)
            batch = []
            nkeys = 0
            now = time.perf_counter()
            while self._pending and nkeys < self.config.max_batch:
                item = self._pending.popleft()
                self._pending_keys -= len(item.keys)
                if item.deadline is not None and now > item.deadline:
                    # The client's budget expired while this request sat
                    # in the queue: shed it instead of doing dead work.
                    if not item.future.done():
                        item.future.set_exception(_DeadlineExceeded())
                    self.stats.shed_deadline += 1
                    self._count_shed("deadline")
                    continue
                batch.append(item)
                nkeys += len(item.keys)
            if batch:
                # A structure that fans work out to its own worker
                # processes (``offload_batches``, e.g. the shared-memory
                # WorkerPool view) blocks on IPC, not the GIL — run it in
                # a thread so the event loop keeps accepting requests.
                if getattr(
                    self.handle.structure, "offload_batches", False
                ):
                    await self._run_batch_offloaded(batch, nkeys)
                else:
                    self._run_batch(batch, nkeys)
            self._gauge_inflight(len(self._pending))

    def _compute_batch(self, batch):
        """One coalesced lookup: a single ``lookup_batch`` on a pinned
        table.  Returns ``(results, generation)``; may raise."""
        with self.handle.read() as version:
            keys = (
                batch[0].keys
                if len(batch) == 1
                else np.concatenate([item.keys for item in batch])
            )
            return version.structure.lookup_batch(keys), version.generation

    def _fan_out(self, batch, nkeys: int, results, generation: int) -> None:
        """Slice one coalesced result back out to the request futures."""
        offset = 0
        for item in batch:
            end = offset + len(item.keys)
            if not item.future.done():
                item.future.set_result((results[offset:end], generation))
            offset = end
        self.stats.batches += 1
        self.stats.batched_requests += len(batch)
        self.stats.batched_keys += nkeys
        self.stats.max_coalesced = max(self.stats.max_coalesced, len(batch))
        self._observe_batch(len(batch), nkeys)

    def _fail_batch(self, batch, error: Exception) -> None:
        for item in batch:
            if not item.future.done():
                item.future.set_exception(error)

    def _run_batch(self, batch, nkeys: int) -> None:
        try:
            results, generation = self._compute_batch(batch)
        except Exception as error:  # engine failure — fail the requests
            self._fail_batch(batch, error)
            return
        self._fan_out(batch, nkeys, results, generation)

    async def _run_batch_offloaded(self, batch, nkeys: int) -> None:
        """The ``offload_batches`` path: compute in a thread, then set the
        futures from the event-loop thread (asyncio futures are not
        thread-safe, so the fan-out must not move off-loop)."""
        try:
            results, generation = await asyncio.to_thread(
                self._compute_batch, batch
            )
        except Exception as error:
            self._fail_batch(batch, error)
            return
        self._fan_out(batch, nkeys, results, generation)

    # -- observability -------------------------------------------------------

    def describe(self) -> dict:
        """Server, handle and journal stats: the OP_STATS body."""
        structure = self.handle.structure
        journal = getattr(self.apply_updates, "journal", None)
        return {
            "structure": getattr(structure, "name", type(structure).__name__),
            "width": getattr(structure, "width", 32),
            "config": {
                "max_batch": self.config.max_batch,
                "max_wait_us": self.config.max_wait_us,
                "effective_wait_us": effective_wait_us(self.config.max_wait_us),
                "max_pending_requests": self.config.max_pending_requests,
                "max_pending_keys": self.config.max_pending_keys,
            },
            "handle": self.handle.stats(),
            "requests": self.stats.requests,
            "responses": self.stats.responses,
            "errors": self.stats.errors,
            "batches": self.stats.batches,
            "batched_requests": self.stats.batched_requests,
            "batched_keys": self.stats.batched_keys,
            "max_coalesced": self.stats.max_coalesced,
            "mean_coalesced": (
                self.stats.batched_requests / self.stats.batches
                if self.stats.batches
                else 0.0
            ),
            "connections": self.stats.connections,
            "reloads": self.stats.reloads,
            "reload_failures": self.stats.reload_failures,
            "updates_applied": self.stats.updates_applied,
            "updates_rejected": self.stats.updates_rejected,
            "shed_overload": self.stats.shed_overload,
            "shed_deadline": self.stats.shed_deadline,
            "shed_quorum": self.stats.shed_quorum,
            "quorum": (
                self.quorum.describe() if self.quorum is not None else None
            ),
        } | ({"journal": journal.describe()} if journal is not None else {})

    def _count_shed(self, reason: str) -> None:
        from repro import obs

        obs.registry().counter(
            "repro_server_shed_total",
            "Lookup requests shed by overload control, by reason.",
            reason=reason,
        ).inc()

    def _count(self, name: str, **labels) -> None:
        from repro import obs

        obs.registry().counter(
            name, "Lookup-service request/response count.",
            **{k: str(v) for k, v in labels.items()},
        ).inc()

    def _gauge_inflight(self, value: int) -> None:
        from repro import obs

        obs.registry().gauge(
            "repro_server_inflight_requests",
            "Lookup requests queued for the next coalesced batch.",
            table=self.handle.name,
        ).set(value)

    def _observe_batch(self, requests: int, nkeys: int) -> None:
        from repro import obs

        reg = obs.registry()
        reg.histogram(
            "repro_server_coalesced_requests",
            "Requests gathered into one coalesced lookup_batch call.",
            buckets=obs.OCCUPANCY_BUCKETS,
            table=self.handle.name,
        ).observe(requests)
        reg.histogram(
            "repro_server_coalesced_keys",
            "Keys resolved per coalesced lookup_batch call.",
            buckets=obs.OCCUPANCY_BUCKETS,
            table=self.handle.name,
        ).observe(nkeys)

    def _observe_latency(self, start: float) -> None:
        from repro import obs

        elapsed_us = (time.perf_counter() - start) * 1e6
        obs.registry().histogram(
            "repro_server_request_latency_us",
            "Server-side request latency (decode to response encode).",
            buckets=obs.LATENCY_US_BUCKETS,
            table=self.handle.name,
        ).observe(elapsed_us)
