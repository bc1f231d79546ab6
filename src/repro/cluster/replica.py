"""A read replica: recover locally, serve lookups, follow the primary.

One :class:`Replica` is a full lookup node.  It

1. **recovers** its local journal directory (checkpoint + tail replay,
   exactly like a restarted primary) and compiles the RIB with
   :data:`REPLICA_ALGORITHM`,
2. **serves** lookups through its own :class:`~repro.server.service.
   LookupServer` behind an RCU :class:`~repro.server.handle.TableHandle`
   — readers never notice replication happening,
3. **follows** a primary's replication channel: every shipped record is
   verified (seqno continuity + session chain CRC) and held; at the
   heartbeat that follows each shipped batch, the held records go
   through the same :class:`~repro.server.pipeline.UpdatePipeline` the
   primary uses — one group commit to the replica's *own* journal (so
   its sequence numbers stay in lockstep with the primary's and survive
   its own crashes), then apply — and the replica acks the durable
   seqno, and
4. **publishes** its own journal in turn, so a promoted replica is
   immediately a primary other replicas can retarget to — promotion is
   a role flip, not a rebuild.

Divergence is handled by refusing to guess: a sequence gap, a chain-CRC
mismatch, an update the engine rejects that the primary accepted, or a
heartbeat showing the primary *behind* this replica all force a full
checkpoint re-sync (``SYNC_FROM_SCRATCH``) instead of serving routes
that might be wrong.

A record is applied only after it is durable, exactly as on the
primary (journal-then-publish), and costs one fsync per shipped batch,
not per record.  The commit runs in a worker thread under the same
mutation lock as the primary's OP_UPDATE handler; readers see the new
table through the RCU handle swap.  Held records that a checkpoint
frame, a promotion or a lost session overtakes are dropped: they were
never applied or acked, and the next session re-ships them.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
import zlib
from typing import List, Optional, Tuple

from repro.cluster import replication
from repro.data import tableio
from repro.data.updates import Update
from repro.errors import ClusterError, ReproError
from repro.lookup import registry
from repro.parallel.image import TableImage
from repro.robust.journal import (
    Journal,
    compile_recovered,
    decode_update,
    newest_checkpoint,
    recover,
)
from repro.server import protocol
from repro.server.handle import TableHandle
from repro.server.pipeline import UpdatePipeline
from repro.server.service import LookupServer, ServerConfig

#: The registry entry every node compiles its RIB with; ``serve --journal
#: --repl-port`` refuses an engine with a wider ``fib_limit``.
REPLICA_ALGORITHM = "Poptrie18"


class Replica:
    """One cluster node: local journal + lookup server + follow loop.

    ``primary`` is the ``(host, port)`` of the primary's replication
    channel, or ``None`` to start as a primary (serving and publishing,
    following nobody).  ``checkpoint_every`` locally checkpoints after
    that many applied records (0 disables; the primary's checkpoints do
    not replicate as checkpoints — replicas compact independently).
    """

    def __init__(
        self,
        directory: str,
        *,
        primary: Optional[Tuple[str, int]] = None,
        serve_host: str = "127.0.0.1",
        serve_port: int = 0,
        repl_host: str = "127.0.0.1",
        repl_port: int = 0,
        server_config: Optional[ServerConfig] = None,
        heartbeat_timeout: float = 2.0,
        reconnect_backoff: float = 0.05,
        checkpoint_every: int = 0,
        name: str = "replica",
        quorum: Optional[replication.QuorumConfig] = None,
    ) -> None:
        self.directory = directory
        self.primary = primary
        self.serve_host = serve_host
        self.serve_port = serve_port
        self.repl_host = repl_host
        self.repl_port = repl_port
        self.server_config = server_config
        self.heartbeat_timeout = heartbeat_timeout
        self.reconnect_backoff = reconnect_backoff
        self.checkpoint_every = checkpoint_every
        self.name = name
        self.quorum = quorum

        self.role = "primary" if primary is None else "replica"
        #: The node's engine: a registry :data:`REPLICA_ALGORITHM` structure.
        self.txn = None
        self.journal: Optional[Journal] = None
        self.handle: Optional[TableHandle] = None
        self.server: Optional[LookupServer] = None
        self.pipeline: Optional[UpdatePipeline] = None
        self.publisher: Optional[replication.ReplicationPublisher] = None

        self.records_applied = 0
        self.records_rejected = 0
        self.resyncs = 0
        self.connects = 0
        self.acks_sent = 0
        self.primary_seqno = 0
        self.last_heartbeat: Optional[float] = None
        self.serve_endpoint: Optional[Tuple[str, int]] = None
        self.repl_endpoint: Optional[Tuple[str, int]] = None

        self._chain = 0
        #: Shipped records verified but not yet committed: the next
        #: heartbeat group-commits them.
        self._held: List[Update] = []
        self._acked = -1
        self._force_snapshot = False
        self._follow_task: Optional[asyncio.Task] = None
        self._stopping = False
        # Serialises every journal/engine mutation.  Needed because a
        # cancelled follow task's in-flight ``to_thread`` checkpoint
        # install keeps running after cancellation — without the lock it
        # would race the next session's work on the same journal.
        self._mutate = threading.RLock()

    # -- lifecycle -----------------------------------------------------------

    @property
    def applied_seqno(self) -> int:
        return self.journal.applied_seqno if self.journal is not None else 0

    async def start(self) -> Tuple[Tuple[str, int], Tuple[str, int]]:
        """Recover, bind, follow.  Returns ``(serve, repl)`` endpoints."""
        os.makedirs(self.directory, exist_ok=True)
        rib = (await asyncio.to_thread(recover, self.directory)).rib
        self.txn = await asyncio.to_thread(
            compile_recovered, rib, REPLICA_ALGORITHM
        )
        self.journal = Journal(self.directory)
        self.handle = TableHandle(self.txn, name=self.name)
        self.pipeline = UpdatePipeline(
            self.txn, self.journal, self.handle,
            checkpoint_every=self.checkpoint_every,
        )
        self.server = LookupServer(
            self.handle,
            self.server_config
            or ServerConfig(host=self.serve_host, port=self.serve_port),
            apply_updates=self._apply_updates,
        )
        serve = await self.server.start()
        self.publisher = replication.ReplicationPublisher(
            self.directory,
            self.repl_host,
            self.repl_port,
            owner=self,
            watermark=lambda: self.applied_seqno,
        )
        repl = await self.publisher.start()
        self.serve_endpoint = serve
        self.repl_endpoint = repl
        if self.quorum is not None:
            # A promoted replica inherits the same durability policy
            # the primary served under — the gate reads this node's own
            # publisher, which gains subscribers after the retargets.
            self.server.quorum = replication.QuorumGate(
                self.publisher, self.quorum
            )
        if self.role == "replica":
            self._follow_task = asyncio.create_task(self._follow())
        return serve, repl

    async def stop(self) -> None:
        self._stopping = True
        if self._follow_task is not None:
            self._follow_task.cancel()
            try:
                await self._follow_task
            except asyncio.CancelledError:
                pass
            self._follow_task = None
        if self.publisher is not None:
            await self.publisher.stop()
        if self.server is not None:
            await self.server.stop()
        if self.journal is not None:
            def close():
                with self._mutate:
                    self.journal.close()
            await asyncio.to_thread(close)

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``python -m repro replica`` main)."""
        try:
            while not self._stopping:
                await asyncio.sleep(3600)
        finally:
            await self.stop()

    # -- the write path (primary role only) ----------------------------------

    def _apply_updates(self, updates) -> dict:
        """OP_UPDATE hook (primary only): the ack follows the message's
        fsync, so it is durable and visible to replication tailers."""
        if self.role != "primary":
            raise ClusterError(
                "replica is read-only; send updates to the primary"
            )
        with self._mutate:
            return self.pipeline(updates)

    # -- the follow loop (replica role) --------------------------------------

    def _hello_seqno(self) -> int:
        """What to ask the primary for: our watermark, or everything."""
        if self._force_snapshot:
            return replication.SYNC_FROM_SCRATCH
        _, path = newest_checkpoint(self.directory)
        if path is None and self.applied_seqno == 0:
            # Never synced: our empty state says nothing about the
            # primary's checkpoint 0, so ask for the full snapshot.
            return replication.SYNC_FROM_SCRATCH
        return self.applied_seqno

    async def _follow(self) -> None:
        backoff = self.reconnect_backoff
        while self.role == "replica" and not self._stopping:
            host, port = self.primary
            try:
                reader, writer = await replication.subscribe(
                    host, port, self._hello_seqno()
                )
            except OSError:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 1.0)
                continue
            backoff = self.reconnect_backoff
            self.connects += 1
            self._chain = 0
            self._held = []
            # New session, new publisher-side subscription record: re-ack
            # our watermark on the first heartbeat so the (possibly new)
            # primary learns where we stand.
            self._acked = -1
            try:
                await self._consume(reader, writer)
            except asyncio.CancelledError:
                raise
            except (
                asyncio.TimeoutError,
                ConnectionError,
                OSError,
                ClusterError,
                ReproError,
            ):
                pass
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _consume(
        self,
        reader: asyncio.StreamReader,
        writer: Optional[asyncio.StreamWriter] = None,
    ) -> None:
        """Apply one subscription session until it breaks or we promote.

        Acks flow back on the same connection: whenever this replica's
        *own* journal makes shipped state durable (the heartbeat's group
        commit, or a checkpoint install), an ACK naming the durable seqno
        goes upstream — the primary's quorum input.
        """
        while self.role == "replica" and not self._stopping:
            frame = await asyncio.wait_for(
                protocol.read_frame(reader, replication.REPL_MAX_FRAME),
                self.heartbeat_timeout,
            )
            if frame is None:
                raise ConnectionError("publisher closed the stream")
            kind, operands = replication.decode_frame(frame)
            if kind == replication.FRAME_CHECKPOINT:
                await self._install_checkpoint(*operands)
                await self._send_ack(writer, operands[0])
            elif kind == replication.FRAME_RECORD:
                self._apply_record(*operands)
            elif kind == replication.FRAME_HEARTBEAT:
                await self._commit_held()
                self._observe_heartbeat(operands[0])
                await self._send_ack(writer, self.applied_seqno)
            else:
                self._diverged(f"unexpected frame type {kind} in stream")
            await asyncio.sleep(0)  # let queued lookups interleave

    async def _send_ack(
        self, writer: Optional[asyncio.StreamWriter], durable: int
    ) -> None:
        """Tell the publisher the highest seqno our journal made durable."""
        if writer is None or durable <= self._acked:
            return
        writer.write(
            protocol.frame_bytes(replication.encode_ack(durable))
        )
        await writer.drain()
        self._acked = durable
        self.acks_sent += 1

    def _diverged(self, reason: str) -> None:
        """Force the next session to re-sync from a checkpoint."""
        self.resyncs += 1
        self._force_snapshot = True
        raise ClusterError(f"diverged from primary: {reason}")

    async def _install_checkpoint(self, seqno: int, image: bytes) -> None:
        """Adopt a shipped snapshot: new RIB, new engine, fresh journal."""
        def rebuild():
            with self._mutate:
                rib = tableio.rib_from_image(TableImage.open(image))
                self.journal.install_checkpoint(rib, seqno)
                return registry.get(REPLICA_ALGORITHM).from_rib(rib)
        self._held = []
        self.txn = self.pipeline.engine = await asyncio.to_thread(rebuild)
        self.handle.swap(self.txn, wait=False)
        self.handle.set_seqno(seqno)
        self._chain = zlib.crc32(image)
        self._force_snapshot = False

    def _apply_record(self, seqno: int, chain: int, payload: bytes) -> None:
        """Verify one shipped record and hold it for the next commit."""
        expected_chain = replication.chain_crc(payload, self._chain)
        if chain != expected_chain:
            self._diverged(
                f"chain CRC mismatch at seqno {seqno} "
                f"(got {chain:#x}, computed {expected_chain:#x})"
            )
        expected = self.applied_seqno + len(self._held) + 1
        if seqno != expected:
            self._diverged(
                f"sequence gap: record {seqno} where {expected} was due"
            )
        self._held.append(decode_update(payload))
        self._chain = expected_chain

    async def _commit_held(self) -> None:
        """Group-commit the held records, then apply them: one message."""
        batch, self._held = self._held, []
        if not batch:
            return

        def commit():
            with self._mutate:
                return self.pipeline.apply(batch)
        report = await asyncio.to_thread(commit)
        if report.rejected:
            # The primary journaled these records, so they applied there;
            # refusing one here (a failed commit, or an update our state
            # rejects) means we differ from the primary.  Re-sync.
            self.records_rejected += report.rejected
            self._diverged(
                f"shipped batch refused at record {report.errors[0][0]}: "
                f"{report.errors[0][1]}"
            )
        self.records_applied += report.applied

    def _observe_heartbeat(self, watermark: int) -> None:
        """Note the primary's watermark; a primary behind us diverged."""
        self.last_heartbeat = time.monotonic()
        self.primary_seqno = watermark
        if watermark < self.applied_seqno:
            # The primary is *behind* us (e.g. restarted from older
            # durable state).  Our extra records are not part of its
            # history any more — re-sync to its timeline.
            self._diverged(
                f"primary watermark {watermark} behind applied "
                f"{self.applied_seqno}"
            )

    # -- control (the publisher's owner callbacks) ----------------------------

    def info(self) -> dict:
        age = (
            round(time.monotonic() - self.last_heartbeat, 3)
            if self.last_heartbeat is not None
            else None
        )
        return {
            "name": self.name,
            "role": self.role,
            "serve": (
                f"{self.serve_endpoint[0]}:{self.serve_endpoint[1]}"
                if self.serve_endpoint
                else None
            ),
            "repl": (
                f"{self.repl_endpoint[0]}:{self.repl_endpoint[1]}"
                if self.repl_endpoint
                else None
            ),
            "applied_seqno": self.applied_seqno,
            "checkpoint_seqno": (
                self.journal.checkpoint_seqno if self.journal else 0
            ),
            "primary": (
                f"{self.primary[0]}:{self.primary[1]}" if self.primary else None
            ),
            "primary_seqno": self.primary_seqno,
            "lag": max(0, self.primary_seqno - self.applied_seqno),
            "heartbeat_age_s": age,
            "generation": self.handle.generation if self.handle else 0,
            "records_applied": self.records_applied,
            "records_rejected": self.records_rejected,
            "resyncs": self.resyncs,
            "connects": self.connects,
            "acks_sent": self.acks_sent,
            "routes": 0 if self.txn is None else len(self.txn.rib),
        }

    def promote(self, min_seqno: int) -> dict:
        """Become primary — but only from a position of knowledge.

        ``min_seqno`` is the coordinator's view of the most advanced
        surviving replica; a replica that has applied less **refuses**
        (a stale promotion would silently roll the cluster's history
        back).  On success the follow loop stops and the node accepts
        OP_UPDATE writes; other replicas are retargeted at its
        publisher by the coordinator.
        """
        if self.role == "primary":
            return {"promoted": True, "already": True, **self.info()}
        if self.applied_seqno < min_seqno:
            return {
                "promoted": False,
                "reason": (
                    f"stale: applied_seqno {self.applied_seqno} < "
                    f"required {min_seqno}"
                ),
                **self.info(),
            }
        self.role = "primary"
        self.primary = None
        self._held = []
        if self._follow_task is not None:
            self._follow_task.cancel()
            self._follow_task = None
        self._count_role_change("promote")
        return {"promoted": True, **self.info()}

    def retarget(self, host: str, port: int) -> dict:
        """Follow a different publisher (after a promotion elsewhere)."""
        if self.role == "primary":
            return {
                "retargeted": False,
                "reason": "primary follows nobody",
                **self.info(),
            }
        self.primary = (host, port)
        self.primary_seqno = 0
        self.last_heartbeat = None
        if self._follow_task is not None:
            self._follow_task.cancel()
        self._follow_task = asyncio.create_task(self._follow())
        self._count_role_change("retarget")
        return {"retargeted": True, **self.info()}

    def _count_role_change(self, kind: str) -> None:
        from repro import obs

        obs.registry().counter(
            "repro_cluster_role_changes_total",
            "Replica promotions and retargets.",
            node=self.name,
            kind=kind,
        ).inc()


__all__ = ["REPLICA_ALGORITHM", "Replica"]
