"""The replicated lookup cluster: shard maps, WAL shipping, failover, chaos.

Four layers of coverage:

1. **Shard maps** — skew-aware splitting, the covering-route rule
   (per-shard LPM must equal global LPM), persistence, validation.
2. **Replication in-process** — checkpoint sync, live tail shipping
   through real sockets, chained replicas, stale-refusal, promotion,
   retargeting, watermark-divergence re-sync, and the router's
   endpoint failover.
3. **Shutdown durability** — the ``serve --journal`` SIGTERM regression:
   acknowledged updates must still be on disk after exit.
4. **Cluster chaos** (subprocess sweep) — one primary and two replica
   processes under a 2000-update stream; a replica is SIGKILLed and
   restarted mid-stream, then the *primary* is SIGKILLed, a survivor is
   elected and promoted, and the stream finishes against it.  Every
   surviving node must converge to the exact in-process oracle state
   (zero misroutes over the wire, byte-identical recovered compiles)
   within a bounded catch-up window.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import random
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.cluster import (
    ClusterRouter,
    Replica,
    build_shard_map,
    naive_shard_map,
    replication,
    shard_balance,
    shard_rib,
)
from repro.cluster.router import FailoverMonitor, RouterConfig, elect_and_promote
from repro.cluster.shard import Shard, ShardMap
from repro.core.poptrie import Poptrie
from repro.data.updates import generate_update_stream
from repro.errors import ClusterError
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.parallel.image import structure_to_bytes
from repro.robust.journal import (
    Journal,
    encode_update,
    newest_checkpoint,
    recover,
)
from repro.robust.txn import TransactionalPoptrie
from repro.server import protocol
from repro.server.loadgen import _Connection

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(TESTS_DIR)

SERVING_RE = re.compile(
    r"serving on ([\d.]+):(\d+), replication on ([\d.]+):(\d+)"
)


def base_rib(n_routes: int = 260, seed: int = 1234) -> Rib:
    """A deterministic starting table; called twice for independent copies."""
    rng = random.Random(seed)
    rib = Rib()
    rib.insert(Prefix.parse("0.0.0.0/0"), 9)
    seen = {(0, 0)}
    while len(rib) < n_routes:
        length = rng.randint(8, 28)
        value = rng.getrandbits(32) & ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF)
        if (value, length) in seen:
            continue
        seen.add((value, length))
        rib.insert(Prefix(value, length), rng.randint(1, 63))
    return rib


def subprocess_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(REPO_DIR, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def route_set(rib: Rib):
    return {(p.value, p.length, p.width, hop) for p, hop in rib.routes()}


def seed_journal(directory: str, rib: Rib) -> None:
    os.makedirs(directory, exist_ok=True)
    with Journal(directory) as journal:
        journal.checkpoint(rib)


async def wait_for(predicate, timeout: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.02)


async def wire_request(host, port, opcode, keys=(), updates=(), timeout=30.0):
    """One request over a fresh pipelined client connection."""
    conn = _Connection()
    conn.host, conn.port = host, int(port)
    await conn.ensure_open()
    try:
        return await conn.request(
            opcode, keys, updates=updates, timeout=timeout
        )
    finally:
        await conn.close()


def free_port() -> int:
    """A port that was just free — connecting to it refuses immediately."""
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ---------------------------------------------------------------------------
# shard maps
# ---------------------------------------------------------------------------


class TestShardMap:
    def test_naive_map_tiles_gaplessly(self):
        shard_map = naive_shard_map(32, 7)
        assert len(shard_map) == 7
        assert shard_map.shards[0].low == 0
        assert shard_map.shards[-1].high == (1 << 32) - 1
        for left, right in zip(shard_map.shards, shard_map.shards[1:]):
            assert right.low == left.high + 1
        assert shard_map.shard_index(0) == 0
        assert shard_map.shard_index((1 << 32) - 1) == 6

    def test_skew_aware_cuts_balance_routes(self):
        # A heavily skewed table: most routes bunched in 10.0.0.0/8.
        rng = random.Random(3)
        rib = Rib()
        seen = set()
        while len(rib) < 300:
            if rng.random() < 0.8:
                value = (10 << 24) | rng.getrandbits(16) << 8
                length = 24
            else:
                length = rng.randint(8, 24)
                value = rng.getrandbits(32) & (
                    (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
                )
            if (value, length) in seen:
                continue
            seen.add((value, length))
            rib.insert(Prefix(value, length), 1)
        skewed = shard_balance(rib, build_shard_map(rib, 4))
        naive = shard_balance(rib, naive_shard_map(32, 4))
        assert max(skewed) - min(skewed) < max(naive) - min(naive)
        assert max(skewed) <= len(rib) / 4 * 1.5

    def test_per_shard_lpm_equals_global_lpm(self):
        """The covering-route rule: shard_rib duplicates covering routes
        so a shard answers exactly like the global table."""
        rib = base_rib(200, seed=5)
        shard_map = build_shard_map(rib, 4)
        global_trie = Poptrie.from_rib(rib)
        shard_tries = [
            Poptrie.from_rib(shard_rib(rib, shard))
            for shard in shard_map.shards
        ]
        rng = random.Random(17)
        keys = [rng.getrandbits(32) for _ in range(3000)]
        keys += [p.value for p, _ in rib.routes()]
        for key in keys:
            index = shard_map.shard_index(key)
            assert shard_tries[index].lookup(key) == global_trie.lookup(key)

    def test_save_load_roundtrip(self, tmp_path):
        shard_map = build_shard_map(
            base_rib(120, seed=8),
            3,
            endpoint_sets=[
                ["127.0.0.1:4000", "127.0.0.1:4001"],
                ["127.0.0.1:4001"],
                ["127.0.0.1:4002", "127.0.0.1:4000"],
            ],
        )
        path = str(tmp_path / "map.json")
        shard_map.save(path)
        loaded = ShardMap.load(path)
        assert loaded == shard_map
        assert loaded.shards[0].endpoints == (
            "127.0.0.1:4000", "127.0.0.1:4001",
        )

    def test_validation_refuses_bad_maps(self, tmp_path):
        with pytest.raises(ClusterError, match="gaplessly"):
            ShardMap(32, (Shard(0, 10), Shard(12, (1 << 32) - 1)))
        with pytest.raises(ClusterError, match="cover"):
            ShardMap(32, (Shard(0, 10),))
        with pytest.raises(ClusterError, match="width"):
            ShardMap(16, (Shard(0, (1 << 16) - 1),))
        with pytest.raises(ClusterError, match="no shards"):
            ShardMap(32, ())
        with pytest.raises(ClusterError, match="endpoint"):
            Shard(0, 5, ("nonsense",))
        with pytest.raises(ClusterError, match="endpoint sets"):
            naive_shard_map(32, 2).with_endpoints([["127.0.0.1:1"]])
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "something-else"}')
        with pytest.raises(ClusterError, match="not a repro-shardmap-v1"):
            ShardMap.load(str(bad))

    def test_router_requires_endpoints(self):
        with pytest.raises(ClusterError, match="no endpoints"):
            ClusterRouter(naive_shard_map(32, 2))


# ---------------------------------------------------------------------------
# replication, promotion and routing (in-process, real sockets)
# ---------------------------------------------------------------------------


async def start_node(directory, *, rib=None, primary=None, name="node", **kw):
    if rib is not None:
        seed_journal(directory, rib)
    node = Replica(directory, primary=primary, name=name, **kw)
    serve, repl = await node.start()
    return node, serve, repl


class TestReplication:
    def test_checkpoint_sync_update_stream_and_fingerprint(self, tmp_path):
        async def scenario():
            rib = base_rib(150, seed=2)
            primary, serve, repl = await start_node(
                str(tmp_path / "p"), rib=rib, name="p"
            )
            replica, rserve, _ = await start_node(
                str(tmp_path / "r"), primary=repl, name="r"
            )
            await wait_for(
                lambda: replica.txn is not None
                and len(replica.txn.rib) == len(rib),
                what="checkpoint sync",
            )
            # Live tail shipping: write through the primary's wire API.
            updates = generate_update_stream(base_rib(150, seed=2), 60, seed=4)
            response = await wire_request(
                *serve, protocol.OP_UPDATE, updates=updates
            )
            report = json.loads(response.text)
            assert report["seqno"] == primary.applied_seqno
            await wait_for(
                lambda: replica.applied_seqno == primary.applied_seqno,
                what="tail catch-up",
            )
            assert replica.resyncs == 0
            assert route_set(replica.txn.rib) == route_set(primary.txn.rib)
            assert structure_to_bytes(
                Poptrie.from_rib(replica.txn.rib)
            ) == structure_to_bytes(Poptrie.from_rib(primary.txn.rib))
            # The replica's lookup server answers from the shipped state.
            probe = [p.value for p, _ in primary.txn.rib.routes()][:16]
            answer = await wire_request(*rserve, protocol.OP_LOOKUP4, probe)
            oracle = Poptrie.from_rib(primary.txn.rib)
            assert list(answer.results) == [oracle.lookup(k) for k in probe]
            # Replicas refuse writes.
            refused = await wire_request(
                *rserve, protocol.OP_UPDATE, updates=updates[:1]
            )
            assert refused.status != protocol.STATUS_OK
            await replica.stop()
            await primary.stop()

        asyncio.run(scenario())

    def test_chained_replica_follows_a_replica(self, tmp_path):
        async def scenario():
            rib = base_rib(100, seed=6)
            primary, serve, repl = await start_node(
                str(tmp_path / "p"), rib=rib, name="p"
            )
            middle, _, mid_repl = await start_node(
                str(tmp_path / "m"), primary=repl, name="m"
            )
            await wait_for(
                lambda: middle.txn is not None
                and len(middle.txn.rib) == len(rib),
                what="middle checkpoint sync",
            )
            leaf, _, _ = await start_node(
                str(tmp_path / "l"), primary=mid_repl, name="l"
            )
            updates = generate_update_stream(base_rib(100, seed=6), 40, seed=9)
            await wire_request(*serve, protocol.OP_UPDATE, updates=updates)
            target = primary.applied_seqno
            await wait_for(
                lambda: leaf.applied_seqno == target,
                what="chained catch-up",
            )
            assert route_set(leaf.txn.rib) == route_set(primary.txn.rib)
            assert leaf.resyncs == 0
            for node in (leaf, middle, primary):
                await node.stop()

        asyncio.run(scenario())

    def test_stale_refusal_election_and_retarget(self, tmp_path):
        async def scenario():
            rib = base_rib(80, seed=11)
            updates = generate_update_stream(base_rib(80, seed=11), 20, seed=3)
            # Two standalone nodes whose journals diverge in depth:
            # ahead has applied 20, behind only 12.  Both are replicas
            # of a dead primary — pure election candidates.
            for name, depth in (("ahead", 20), ("behind", 12)):
                d = str(tmp_path / name)
                seed_journal(d, rib)
                with Journal(d) as journal:
                    journal.append(updates[:depth])
            dead = ("127.0.0.1", free_port())
            ahead, _, ahead_repl = await start_node(
                str(tmp_path / "ahead"), primary=dead, name="ahead"
            )
            behind, _, behind_repl = await start_node(
                str(tmp_path / "behind"), primary=dead, name="behind"
            )
            # A stale candidate refuses promotion outright.
            refusal = await replication.request_promote(
                *behind_repl, min_seqno=ahead.applied_seqno
            )
            assert refusal["promoted"] is False
            assert "stale" in refusal["reason"]
            assert behind.role == "replica"
            # The election picks the deepest journal and retargets the rest.
            outcome = await elect_and_promote([
                f"{behind_repl[0]}:{behind_repl[1]}",
                f"{ahead_repl[0]}:{ahead_repl[1]}",
            ])
            assert outcome["promoted"] == f"{ahead_repl[0]}:{ahead_repl[1]}"
            assert outcome["promoted_seqno"] == 20
            assert outcome["min_seqno"] == 12
            assert ahead.role == "primary"
            assert behind.primary == ahead_repl
            # The retargeted node catches up from the new primary.
            await wait_for(
                lambda: behind.applied_seqno == 20, what="retarget catch-up"
            )
            assert route_set(behind.txn.rib) == route_set(ahead.txn.rib)
            await behind.stop()
            await ahead.stop()

        asyncio.run(scenario())

    def test_primary_behind_replica_forces_resync(self, tmp_path):
        async def scenario():
            # The replica has durable history to seqno 15; its new
            # primary starts from a different, empty timeline (seqno 0).
            # The heartbeat watermark exposes the divergence and the
            # replica must re-sync to the primary's state, not serve a
            # mix of both histories.
            old_rib = base_rib(60, seed=21)
            rdir = str(tmp_path / "r")
            seed_journal(rdir, old_rib)
            with Journal(rdir) as journal:
                journal.append(generate_update_stream(
                    base_rib(60, seed=21), 15, seed=2
                ))
            new_rib = base_rib(90, seed=22)
            primary, _, repl = await start_node(
                str(tmp_path / "p"), rib=new_rib, name="p"
            )
            replica, _, _ = await start_node(rdir, primary=repl, name="r")
            assert replica.applied_seqno == 15
            await wait_for(
                lambda: replica.resyncs > 0
                and route_set(replica.txn.rib) == route_set(new_rib),
                what="divergence re-sync",
            )
            assert replica.applied_seqno == primary.applied_seqno == 0
            await replica.stop()
            await primary.stop()

        asyncio.run(scenario())

    def test_resync_ships_the_checkpoint_file_bytes(self, tmp_path):
        async def scenario():
            # The replica's history (seqno 5) is not the primary's
            # (seqno 0), so its first heartbeat forces a re-sync.
            rdir = str(tmp_path / "r")
            seed_journal(rdir, base_rib(60, seed=40))
            with Journal(rdir) as journal:
                journal.append(
                    generate_update_stream(base_rib(60, seed=40), 5, seed=1)
                )
            rib = base_rib(70, seed=41)
            pdir = str(tmp_path / "p")
            primary, _, repl = await start_node(pdir, rib=rib, name="p")
            _, path = newest_checkpoint(pdir)
            with open(path, "rb") as stream:
                on_disk = stream.read()
            replica = Replica(rdir, primary=repl, name="r")
            received = []
            install = replica._install_checkpoint

            async def capture(seqno, image):
                # Record only once the install (a thread hop) is done,
                # so the route check below sees the installed RIB.
                await install(seqno, image)
                received.append((seqno, bytes(image)))
            replica._install_checkpoint = capture
            await replica.start()
            await wait_for(lambda: received, what="checkpoint re-sync")
            assert replica.resyncs == 1
            assert received == [(0, on_disk)]
            assert route_set(replica.txn.rib) == route_set(rib)
            await replica.stop()
            await primary.stop()

        asyncio.run(scenario())

    def test_crc_flipped_checkpoint_is_refused_not_shipped(self, tmp_path):
        async def scenario():
            pdir = str(tmp_path / "p")
            seed_journal(pdir, base_rib(70, seed=42))
            _, path = newest_checkpoint(pdir)
            with open(path, "rb+") as stream:
                blob = bytearray(stream.read())
                blob[len(blob) - 8] ^= 0xFF
                stream.seek(0)
                stream.write(blob)
            with pytest.raises(ClusterError, match="refused"):
                replication._checkpoint_image(pdir)
            publisher = replication.ReplicationPublisher(pdir)
            host, port = await publisher.start()
            reader, writer = await replication.subscribe(
                host, port, replication.SYNC_FROM_SCRATCH
            )
            try:
                frame = await asyncio.wait_for(
                    protocol.read_frame(reader, replication.REPL_MAX_FRAME), 10
                )
            finally:
                writer.close()
                await publisher.stop()
            assert frame is None  # the publisher hung up, shipping nothing
            assert publisher.checkpoints_shipped == 0

        asyncio.run(scenario())

    def test_router_fails_over_and_reports_down(self, tmp_path):
        async def scenario():
            rib = base_rib(100, seed=31)
            node, serve, _ = await start_node(
                str(tmp_path / "p"), rib=rib, name="p"
            )
            dead = f"127.0.0.1:{free_port()}"
            live = f"{serve[0]}:{serve[1]}"
            shard_map = build_shard_map(
                rib, 2, endpoint_sets=[[dead, live], [live, dead]]
            )
            router = ClusterRouter(
                shard_map,
                RouterConfig(request_timeout=5.0, retry_pause_s=0.01),
            )
            oracle = Poptrie.from_rib(rib)
            rng = random.Random(12)
            keys = [rng.getrandbits(32) for _ in range(64)]
            results = await router.lookup_batch(keys)
            assert results == [oracle.lookup(k) for k in keys]
            # The dead endpoint was tried (it leads shard #0) and marked.
            assert router.endpoint_errors > 0
            assert dead in router.describe()["down"]
            probes = await router.probe()
            assert probes[dead] is None
            assert probes[live] is not None
            await router.close()
            await node.stop()

        asyncio.run(scenario())

    def test_router_raises_when_shard_exhausted(self):
        async def scenario():
            dead = f"127.0.0.1:{free_port()}"
            shard_map = naive_shard_map(32, 1).with_endpoints([[dead]])
            router = ClusterRouter(
                shard_map,
                RouterConfig(
                    attempts_per_shard=2,
                    request_timeout=0.5,
                    retry_pause_s=0.01,
                ),
            )
            with pytest.raises(ClusterError, match="unreachable"):
                await router.lookup_batch([1, 2, 3])
            await router.close()

        asyncio.run(scenario())

    def test_failover_monitor_state_machine(self, tmp_path):
        async def scenario():
            rib = base_rib(70, seed=41)
            primary, _, repl = await start_node(
                str(tmp_path / "p"), rib=rib, name="p"
            )
            replica, _, replica_repl = await start_node(
                str(tmp_path / "r"), primary=repl, name="r"
            )
            await wait_for(
                lambda: len(replica.txn.rib) == len(rib), what="sync"
            )
            monitor = FailoverMonitor(
                f"{repl[0]}:{repl[1]}",
                [f"{replica_repl[0]}:{replica_repl[1]}"],
                probe_timeout=1.0,
                misses_to_fail=2,
            )
            assert await monitor.check_once() == "healthy"
            await primary.stop()
            assert await monitor.check_once() == "suspect"
            assert await monitor.check_once() == "failed_over"
            assert monitor.promotion is not None
            assert replica.role == "primary"
            # Once failed over, the monitor stays put.
            assert await monitor.check_once() == "failed_over"
            await replica.stop()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# replication frame hardening (the malformed-frame matrix)
# ---------------------------------------------------------------------------


def _corrupt_checkpoint_frame() -> bytes:
    good = replication.encode_checkpoint(5, b"table image bytes")
    return good[:-1] + bytes([good[-1] ^ 0xFF])  # flip one image byte


def record_frames(updates, first_seqno=1, chain=0):
    """``updates`` as the publisher ships them: chained RECORD frames."""
    frames = []
    for seqno, update in enumerate(updates, first_seqno):
        payload = encode_update(update)
        chain = replication.chain_crc(payload, chain)
        frames.append(protocol.frame_bytes(
            replication.encode_record(seqno, chain, payload)
        ))
    return b"".join(frames)


class TestReplicaGroupCommit:
    """A replica holds shipped records and group-commits them at the
    heartbeat that follows: journal-then-publish, as on the primary."""

    def test_records_apply_only_at_the_committing_heartbeat(self, tmp_path):
        async def scenario():
            rib = base_rib(90, seed=43)
            rdir = str(tmp_path / "r")
            seed_journal(rdir, rib)
            dead = ("127.0.0.1", free_port())
            replica, _, _ = await start_node(rdir, primary=dead, name="r")
            updates = generate_update_stream(base_rib(90, seed=43), 12, seed=5)
            before = route_set(replica.txn.rib)
            fsyncs = replica.journal.stats.fsyncs
            reader = asyncio.StreamReader()
            reader.feed_data(record_frames(updates))
            session = asyncio.create_task(replica._consume(reader))
            await wait_for(
                lambda: len(replica._held) == len(updates), what="held records"
            )
            # Received and verified, but neither durable nor applied.
            assert replica.applied_seqno == 0
            assert replica.records_applied == 0
            assert route_set(replica.txn.rib) == before
            assert recover(rdir).last_seqno == 0

            reader.feed_data(protocol.frame_bytes(
                replication.encode_heartbeat(len(updates))
            ))
            await wait_for(
                lambda: replica.applied_seqno == len(updates),
                what="heartbeat commit",
            )
            assert replica.journal.stats.fsyncs == fsyncs + 1
            assert replica.records_applied == len(updates)
            oracle = TransactionalPoptrie(rib=base_rib(90, seed=43))
            oracle.apply_stream(updates)
            assert route_set(replica.txn.rib) == route_set(oracle.rib)
            reader.feed_eof()
            with pytest.raises(ConnectionError):
                await session
            await replica.stop()
            assert recover(rdir).last_seqno == len(updates)

        asyncio.run(scenario())

    def test_failed_commit_resyncs_and_recovers_what_it_applied(
        self, tmp_path
    ):
        async def scenario():
            rib = base_rib(90, seed=44)
            primary, serve, repl = await start_node(
                str(tmp_path / "p"), rib=rib, name="p"
            )
            rdir = str(tmp_path / "r")
            replica, _, _ = await start_node(rdir, primary=repl, name="r")
            await wait_for(
                lambda: replica.txn is not None
                and len(replica.txn.rib) == len(rib),
                what="checkpoint sync",
            )
            journal = replica.journal
            append = journal.append
            refused = []

            def fail_once(updates):
                if not refused:
                    refused.append(len(updates))
                    raise OSError(errno.EIO, "Input/output error")
                return append(updates)
            journal.append = fail_once

            updates = generate_update_stream(base_rib(90, seed=44), 30, seed=6)
            response = await wire_request(
                *serve, protocol.OP_UPDATE, updates=updates
            )
            assert response.status == protocol.STATUS_OK
            await wait_for(
                lambda: replica.applied_seqno == primary.applied_seqno
                and replica.resyncs > 0,
                what="re-sync after the refused commit",
            )
            assert refused
            assert replica.records_rejected == refused[0]
            assert route_set(replica.txn.rib) == route_set(primary.txn.rib)
            await replica.stop()
            await primary.stop()
            result = recover(rdir)
            assert result.last_seqno == replica.applied_seqno
            assert route_set(result.rib) == route_set(primary.txn.rib)

        asyncio.run(scenario())


class TestFrameHardening:
    """Every malformation is a typed ClusterError — nothing escapes as a
    raw struct.error, UnicodeDecodeError, or JSONDecodeError."""

    @pytest.mark.parametrize(
        "payload, match",
        [
            (b"", "empty"),
            (bytes([99]), "unknown replication frame type 99"),
            (bytes([replication.FRAME_HELLO]) + b"\x00\x01", "truncated"),
            (bytes([replication.FRAME_HEARTBEAT]), "truncated"),
            (bytes([replication.FRAME_ACK]) + b"\x00" * 3, "truncated"),
            (bytes([replication.FRAME_PROMOTE]) + b"\x00" * 7, "truncated"),
            (bytes([replication.FRAME_CHECKPOINT]) + b"\x00" * 4, "truncated"),
            (bytes([replication.FRAME_RECORD]) + b"\x00" * 6, "truncated"),
            (bytes([replication.FRAME_RETARGET]) + b"\x00", "truncated"),
            (_corrupt_checkpoint_frame(), "fails its CRC"),
            (
                replication.encode_record(1, 0, b"\x00" * 24)[:-4],
                "payload bytes",
            ),
            (bytes([replication.FRAME_QUERY]) + b"junk", "carries a body"),
            (bytes([replication.FRAME_INFO]) + b"not json", "malformed"),
            (bytes([replication.FRAME_INFO]) + b"\xff\xfe", "malformed"),
        ],
    )
    def test_malformed_frames_raise_typed_errors(self, payload, match):
        with pytest.raises(ClusterError, match=match):
            replication.decode_frame(payload)

    def test_oversized_frame_is_refused(self):
        frame = replication.encode_heartbeat(7) + b"\x00" * 64
        with pytest.raises(ClusterError, match="oversized"):
            replication.decode_frame(frame, max_frame=32)

    def test_ack_frame_roundtrip(self):
        kind, operands = replication.decode_frame(
            replication.encode_ack((1 << 50) + 3)
        )
        assert kind == replication.FRAME_ACK
        assert operands == ((1 << 50) + 3,)


# ---------------------------------------------------------------------------
# quorum-acknowledged writes (FRAME_ACK, wait_quorum, the durability gate)
# ---------------------------------------------------------------------------


class TestQuorum:
    def test_acks_flow_and_quorum_gates_the_write(self, tmp_path):
        """A min_insync=1 primary holds each OP_UPDATE ack until the
        replica acks the batch's seqno over the replication channel."""
        async def scenario():
            rib = base_rib(90, seed=61)
            primary, serve, repl = await start_node(
                str(tmp_path / "p"), rib=rib, name="p",
                quorum=replication.QuorumConfig(min_insync=1, timeout_s=5.0),
            )
            replica, _, _ = await start_node(
                str(tmp_path / "r"), primary=repl, name="r"
            )
            await wait_for(
                lambda: len(replica.txn.rib) == len(rib), what="sync"
            )
            updates = generate_update_stream(base_rib(90, seed=61), 30, seed=2)
            response = await wire_request(
                *serve, protocol.OP_UPDATE, updates=updates
            )
            assert response.status == protocol.STATUS_OK
            report = json.loads(response.text)
            assert "quorum" not in report  # met, not degraded
            seqno = report["seqno"]
            # The ack already covered the batch when the client saw OK.
            assert primary.publisher.insync_count(seqno) >= 1
            assert max(
                primary.publisher.acked_watermarks().values()
            ) >= seqno
            assert replica.acks_sent > 0
            assert replica.applied_seqno == seqno
            gate = primary.server.quorum
            assert gate.describe()["timeouts"] == 0
            # info() now names both endpoints (the monitor's shard-map
            # rewrite reads "serve" off survivors).
            info = primary.info()
            assert info["serve"] == f"{serve[0]}:{serve[1]}"
            assert info["repl"] == f"{repl[0]}:{repl[1]}"
            await replica.stop()
            await primary.stop()

        asyncio.run(scenario())

    def test_quorum_timeout_sheds_retryably(self, tmp_path):
        """No subscribers: the write applies + journals locally but the
        client gets the retryable STATUS_QUORUM_TIMEOUT."""
        async def scenario():
            rib = base_rib(60, seed=62)
            primary, serve, _ = await start_node(
                str(tmp_path / "p"), rib=rib, name="p",
                quorum=replication.QuorumConfig(
                    min_insync=1, timeout_s=0.2, on_timeout="shed"
                ),
            )
            updates = generate_update_stream(base_rib(60, seed=62), 5, seed=3)
            response = await wire_request(
                *serve, protocol.OP_UPDATE, updates=updates
            )
            assert response.status == protocol.STATUS_QUORUM_TIMEOUT
            assert response.status in protocol.RETRYABLE_STATUSES
            report = json.loads(response.text)
            assert report["quorum"] == "timeout"
            assert report["applied"] == 5  # applied locally regardless
            assert primary.applied_seqno == report["seqno"]
            assert primary.server.stats.shed_quorum == 1
            assert primary.server.describe()["shed_quorum"] == 1
            await primary.stop()

        asyncio.run(scenario())

    def test_degrade_mode_flips_gauge_and_recovers(self, tmp_path):
        """on_timeout='degrade': writes keep flowing asynchronously with
        the degraded flag up; a returning quorum clears it."""
        async def scenario():
            rib = base_rib(60, seed=63)
            primary, serve, repl = await start_node(
                str(tmp_path / "p"), rib=rib, name="p",
                quorum=replication.QuorumConfig(
                    min_insync=1, timeout_s=0.2, on_timeout="degrade"
                ),
            )
            updates = generate_update_stream(base_rib(60, seed=63), 20, seed=4)
            # No replica yet: the first write degrades instead of failing.
            response = await wire_request(
                *serve, protocol.OP_UPDATE, updates=updates[:5]
            )
            assert response.status == protocol.STATUS_OK
            assert json.loads(response.text)["quorum"] == "degraded"
            gate = primary.server.quorum
            assert gate.degraded is True
            # A replica arrives and catches up; the next write recovers.
            replica, _, _ = await start_node(
                str(tmp_path / "r"), primary=repl, name="r"
            )
            await wait_for(
                lambda: replica.applied_seqno == primary.applied_seqno,
                what="replica catch-up",
            )
            await wait_for(
                lambda: primary.publisher.insync_count(
                    primary.applied_seqno
                ) >= 1,
                what="replica ack",
            )
            response = await wire_request(
                *serve, protocol.OP_UPDATE, updates=updates[5:10]
            )
            assert response.status == protocol.STATUS_OK
            assert "quorum" not in json.loads(response.text)
            assert gate.degraded is False
            await replica.stop()
            await primary.stop()

        asyncio.run(scenario())

    def test_wait_quorum_counts_distinct_subscribers(self, tmp_path):
        """min_insync=2 with one replica: wait_quorum times out; the
        second replica's ack completes it."""
        async def scenario():
            rib = base_rib(50, seed=64)
            primary, _, repl = await start_node(
                str(tmp_path / "p"), rib=rib, name="p"
            )
            first, _, _ = await start_node(
                str(tmp_path / "r1"), primary=repl, name="r1"
            )
            await wait_for(
                lambda: primary.publisher.insync_count(
                    primary.applied_seqno
                ) >= 1,
                what="first replica ack",
            )
            seqno = primary.applied_seqno
            assert await primary.publisher.wait_quorum(seqno, 2, 0.2) is False
            second, _, _ = await start_node(
                str(tmp_path / "r2"), primary=repl, name="r2"
            )
            assert await primary.publisher.wait_quorum(seqno, 2, 10.0) is True
            assert len(primary.publisher.acked_watermarks()) == 2
            for node in (second, first, primary):
                await node.stop()

        asyncio.run(scenario())

    def test_quorum_config_validation(self):
        with pytest.raises(ClusterError, match="min_insync"):
            replication.QuorumConfig(min_insync=-1)
        with pytest.raises(ClusterError, match="timeout"):
            replication.QuorumConfig(timeout_s=0)
        with pytest.raises(ClusterError, match="on_timeout"):
            replication.QuorumConfig(on_timeout="explode")


# ---------------------------------------------------------------------------
# election determinism and the failover monitor daemon
# ---------------------------------------------------------------------------


class TestElectionAndMonitor:
    def test_election_tie_break_is_deterministic(self, monkeypatch):
        """Watermark ties promote the lexicographically-lowest endpoint,
        whatever order the candidates were listed in."""
        import repro.cluster.router as router_module

        seqnos = {
            "127.0.0.1:7003": 30,
            "127.0.0.1:7001": 30,  # tied with :7003 — must win
            "127.0.0.1:7002": 12,
        }

        async def fake_query(host, port, timeout=5.0):
            return {"applied_seqno": seqnos[f"{host}:{port}"]}

        promotions = []

        async def fake_promote(host, port, min_seqno, timeout=30.0):
            promotions.append((f"{host}:{port}", min_seqno))
            return {"promoted": True}

        async def fake_retarget(host, port, nh, np, timeout=30.0):
            return {"retargeted": True}

        monkeypatch.setattr(router_module.replication, "query_info", fake_query)
        monkeypatch.setattr(
            router_module.replication, "request_promote", fake_promote
        )
        monkeypatch.setattr(
            router_module.replication, "request_retarget", fake_retarget
        )
        endpoints = list(seqnos)
        for ordering in (endpoints, list(reversed(endpoints))):
            outcome = asyncio.run(elect_and_promote(ordering))
            assert outcome["promoted"] == "127.0.0.1:7001"
            # min_seqno covers the tied loser: it must not refuse.
            assert outcome["min_seqno"] == 30
        assert [winner for winner, _ in promotions] == ["127.0.0.1:7001"] * 2

    def test_monitor_flap_damping_never_promotes(self, monkeypatch):
        """A primary that alternates probe fail/success oscillates
        healthy<->suspect forever; misses never accumulate to down."""
        import repro.cluster.router as router_module

        flaps = {"count": 0}

        async def flappy_query(host, port, timeout=5.0):
            flaps["count"] += 1
            if flaps["count"] % 2 == 1:
                raise ClusterError("probe miss")
            return {"applied_seqno": 1}

        async def must_not_promote(*args, **kwargs):
            raise AssertionError("flapping primary was promoted")

        monkeypatch.setattr(
            router_module.replication, "query_info", flappy_query
        )
        monkeypatch.setattr(
            router_module, "elect_and_promote", must_not_promote
        )
        monitor = FailoverMonitor(
            "127.0.0.1:7001", ["127.0.0.1:7002"], misses_to_fail=2
        )

        async def oscillate():
            states = [await monitor.check_once() for _ in range(12)]
            return states

        states = asyncio.run(oscillate())
        assert states == ["suspect", "healthy"] * 6
        assert monitor.state == "healthy"  # recovery, not a promotion
        assert monitor.promotion is None
        transitions = [
            (e["from"], e["to"])
            for e in monitor.events
            if e["event"] == "transition"
        ]
        assert ("suspect", "down") not in transitions
        assert ("healthy", "suspect") in transitions
        assert ("suspect", "healthy") in transitions

    def test_monitor_daemon_promotes_and_republishes_shard_map(
        self, tmp_path
    ):
        """The daemon loop end to end: sustained primary loss drives the
        election, and the shard map is atomically rewritten to the
        survivors' serve endpoints (promoted node first, dead dropped)."""
        async def scenario():
            rib = base_rib(70, seed=65)
            primary, pserve, repl = await start_node(
                str(tmp_path / "p"), rib=rib, name="p"
            )
            replica, rserve, rrepl = await start_node(
                str(tmp_path / "r"), primary=repl, name="r"
            )
            await wait_for(
                lambda: len(replica.txn.rib) == len(rib), what="sync"
            )
            pserve_str = f"{pserve[0]}:{pserve[1]}"
            rserve_str = f"{rserve[0]}:{rserve[1]}"
            map_path = str(tmp_path / "map.json")
            naive_shard_map(32, 2).with_endpoints(
                [[pserve_str, rserve_str]] * 2
            ).save(map_path)
            events = []
            monitor = FailoverMonitor(
                f"{repl[0]}:{repl[1]}",
                [f"{rrepl[0]}:{rrepl[1]}"],
                probe_timeout=0.5,
                misses_to_fail=2,
                interval_s=0.05,
                promote=True,
                shard_map_path=map_path,
                on_event=events.append,
            )
            daemon = asyncio.create_task(monitor.run())
            await asyncio.sleep(0.2)  # a few healthy probes first
            assert monitor.state == "healthy"
            await primary.stop()
            assert await asyncio.wait_for(daemon, 20.0) == "failed_over"
            assert replica.role == "primary"
            rewritten = ShardMap.load(map_path)
            for shard in rewritten.shards:
                assert shard.endpoints[0] == rserve_str
                assert pserve_str not in shard.endpoints
            kinds = [event["event"] for event in events]
            assert "promoted" in kinds
            assert "shard_map_republished" in kinds
            assert kinds.index("promoted") < kinds.index(
                "shard_map_republished"
            )
            await replica.stop()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# serve --journal shutdown durability (the SIGTERM flush regression)
# ---------------------------------------------------------------------------


class TestServeShutdownFlush:
    def test_sigterm_flushes_buffered_journal_records(self, tmp_path):
        """Acknowledged OP_UPDATEs must survive a SIGTERM (each message
        is fsynced before its ack; shutdown still flushes and closes)."""
        jdir = str(tmp_path / "wal")
        seed_journal(jdir, base_rib(120, seed=51))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--journal", jdir,
                "--host", "127.0.0.1", "--port", "0",
            ],
            cwd=REPO_DIR, env=subprocess_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            port = None
            for _ in range(50):
                line = proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving"):
                    port = int(line.rsplit(":", 1)[1])
                    break
            assert port, proc.stderr.read()
            updates = generate_update_stream(
                base_rib(120, seed=51), 10, seed=1
            )
            response = asyncio.run(
                wire_request("127.0.0.1", port, protocol.OP_UPDATE,
                             updates=updates)
            )
            assert response.status == protocol.STATUS_OK
            acked = json.loads(response.text)["seqno"]
            assert acked == 10
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        result = recover(jdir)
        assert result.applied_seqno == 10
        assert result.torn_bytes == 0  # close() finished the final record


# ---------------------------------------------------------------------------
# the cluster chaos sweep (subprocess kill/promote/catch-up)
# ---------------------------------------------------------------------------

STREAM_LEN = 2000
FEED_BATCH = 25
CATCHUP_TIMEOUT_S = 30.0


def spawn_node(jdir, name, primary=None, extra=()):
    argv = [
        sys.executable, "-m", "repro", "replica",
        "--journal", jdir, "--host", "127.0.0.1",
        "--port", "0", "--repl-port", "0",
        "--name", name, *extra,
    ]
    if primary is not None:
        argv += ["--primary", f"{primary[0]}:{primary[1]}"]
    proc = subprocess.Popen(
        argv, cwd=REPO_DIR, env=subprocess_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    serve = repl = None
    for _ in range(80):
        line = proc.stdout.readline()
        if not line:
            break
        match = SERVING_RE.search(line)
        if match:
            serve = (match.group(1), int(match.group(2)))
            repl = (match.group(3), int(match.group(4)))
            break
    if serve is None:
        proc.kill()
        raise AssertionError(
            f"{name} never announced endpoints: {proc.stderr.read()}"
        )
    return {"proc": proc, "dir": jdir, "name": name,
            "serve": serve, "repl": repl}


def feed_updates(serve, updates, start, end):
    """Apply ``updates[start:end]`` through the wire in acked batches;
    returns the last acknowledged sequence number."""
    async def go():
        conn = _Connection()
        conn.host, conn.port = serve
        await conn.ensure_open()
        acked = None
        try:
            for i in range(start, end, FEED_BATCH):
                response = await conn.request(
                    protocol.OP_UPDATE,
                    updates=updates[i:i + FEED_BATCH],
                    timeout=30,
                )
                assert response.status == protocol.STATUS_OK, response.text
                acked = json.loads(response.text)["seqno"]
        finally:
            await conn.close()
        return acked

    return asyncio.run(go())


def node_info(repl):
    return asyncio.run(replication.query_info(*repl, timeout=5.0))


def wait_applied(repl, seqno, timeout=CATCHUP_TIMEOUT_S):
    deadline = time.monotonic() + timeout
    while True:
        try:
            info = node_info(repl)
            if info["applied_seqno"] >= seqno:
                return info
        except (ClusterError, ConnectionError, OSError, asyncio.TimeoutError):
            pass
        if time.monotonic() > deadline:
            raise AssertionError(
                f"node at {repl} did not reach seqno {seqno} "
                f"within {timeout}s"
            )
        time.sleep(0.1)


@pytest.fixture(scope="module")
def cluster_sweep(tmp_path_factory):
    """SIGKILL a replica and then the primary mid-stream; the tests below
    assert the cluster converged to the oracle anyway."""
    root = tmp_path_factory.mktemp("cluster-chaos")
    updates = generate_update_stream(base_rib(), count=STREAM_LEN, seed=77)
    oracle = TransactionalPoptrie(rib=base_rib())
    report = oracle.apply_stream(updates)
    assert report.rejected == 0 and report.applied == STREAM_LEN

    nodes = {}
    try:
        pdir = str(root / "p")
        seed_journal(pdir, base_rib())
        # The primary checkpoints mid-stream so the killed replica's
        # rejoin exercises the JournalGap -> checkpoint re-sync path too.
        primary = spawn_node(
            pdir, "p", extra=("--checkpoint-every", "400")
        )
        nodes["p"] = primary
        for name in ("r0", "r1"):
            nodes[name] = spawn_node(
                str(root / name), name, primary=primary["repl"]
            )

        # Phase 1: a third of the stream, then SIGKILL replica r0.
        feed_updates(primary["serve"], updates, 0, 700)
        nodes["r0"]["proc"].kill()
        nodes["r0"]["proc"].wait()

        # Phase 2: keep streaming with r0 dead, then restart it from its
        # own journal (recover + re-subscribe + catch up).
        feed_updates(primary["serve"], updates, 700, 1300)
        r0_restart = spawn_node(
            nodes["r0"]["dir"], "r0", primary=primary["repl"]
        )
        nodes["r0"]["proc"].stderr.close()
        nodes["r0"]["proc"].stdout.close()
        nodes["r0"] = r0_restart

        # Phase 3: SIGKILL the primary, elect and promote a survivor.
        acked = 1300
        primary["proc"].kill()
        primary["proc"].wait()
        survivors = [nodes["r0"], nodes["r1"]]
        promotion = asyncio.run(elect_and_promote([
            f"{node['repl'][0]}:{node['repl'][1]}" for node in survivors
        ]))
        promoted = next(
            node for node in survivors
            if f"{node['repl'][0]}:{node['repl'][1]}" == promotion["promoted"]
        )
        # Records acked by the dead primary but not yet shipped are not
        # on the survivors; the stream resumes from the promoted node's
        # own watermark (never past what was acked).
        resume_from = promotion["promoted_seqno"]
        assert resume_from <= acked

        # Phase 4: finish the stream against the new primary; everyone
        # must converge within the catch-up budget.
        final = feed_updates(promoted["serve"], updates, resume_from,
                             STREAM_LEN)
        assert final == STREAM_LEN
        catchup_started = time.monotonic()
        infos = {
            node["name"]: wait_applied(node["repl"], STREAM_LEN)
            for node in survivors
        }
        catchup_s = time.monotonic() - catchup_started

        yield {
            "nodes": nodes,
            "survivors": survivors,
            "promoted": promoted,
            "promotion": promotion,
            "oracle": oracle,
            "updates": updates,
            "infos": infos,
            "catchup_s": catchup_s,
            "acked_at_kill": acked,
        }

        # Graceful stop so buffered journal bytes hit disk, then verify
        # the recovered state below (in the tests) from a cold start.
        for node in survivors:
            node["proc"].send_signal(signal.SIGTERM)
        for node in survivors:
            assert node["proc"].wait(timeout=30) == 0
    finally:
        for node in nodes.values():
            if node["proc"].poll() is None:
                node["proc"].kill()
                node["proc"].wait()
            node["proc"].stdout.close()
            node["proc"].stderr.close()


class TestClusterChaos:
    def test_promotion_elected_a_survivor(self, cluster_sweep):
        promotion = cluster_sweep["promotion"]
        assert promotion["surveyed"] == 2
        assert promotion["promoted_seqno"] >= promotion["min_seqno"]
        retargets = promotion["retargets"]
        assert all(r.get("retargeted") for r in retargets.values())

    def test_bounded_catch_up(self, cluster_sweep):
        assert cluster_sweep["catchup_s"] < CATCHUP_TIMEOUT_S
        for info in cluster_sweep["infos"].values():
            assert info["applied_seqno"] == STREAM_LEN

    def test_zero_misroutes_over_the_wire(self, cluster_sweep):
        """Every surviving node, queried through the sharded router,
        answers exactly like the crash-free in-process oracle."""
        oracle = cluster_sweep["oracle"]
        endpoints = [
            f"{node['serve'][0]}:{node['serve'][1]}"
            for node in cluster_sweep["survivors"]
        ]
        shard_map = build_shard_map(
            oracle.rib, 2,
            endpoint_sets=[endpoints, list(reversed(endpoints))],
        )
        rng = random.Random(4242)
        keys = [p.value for p, _ in oracle.rib.routes()][:64]
        keys += [rng.getrandbits(32) for _ in range(64)]
        expected = [oracle.lookup(key) for key in keys]

        async def routed():
            router = ClusterRouter(shard_map)
            try:
                return await router.lookup_batch(keys)
            finally:
                await router.close()

        assert asyncio.run(routed()) == expected
        # And each node individually — no replica serves stale routes.
        for node in cluster_sweep["survivors"]:
            response = asyncio.run(
                wire_request(*node["serve"], protocol.OP_LOOKUP4, keys)
            )
            assert list(response.results) == expected, node["name"]

    def test_recovered_journals_match_oracle(self, cluster_sweep):
        # Runs after the module teardown has not yet happened, so stop
        # the survivors here to read their journals cold.
        for node in cluster_sweep["survivors"]:
            if node["proc"].poll() is None:
                node["proc"].send_signal(signal.SIGTERM)
                assert node["proc"].wait(timeout=30) == 0
        oracle = cluster_sweep["oracle"]
        want = structure_to_bytes(Poptrie.from_rib(oracle.rib))
        for node in cluster_sweep["survivors"]:
            result = recover(node["dir"])
            assert result.applied_seqno == STREAM_LEN, node["name"]
            assert route_set(result.rib) == route_set(oracle.rib), node["name"]
            assert structure_to_bytes(
                Poptrie.from_rib(result.rib)
            ) == want, node["name"]


# ---------------------------------------------------------------------------
# the bounded-loss contract (quorum chaos: SIGKILL with min_insync=1)
# ---------------------------------------------------------------------------

QUORUM_STREAM = 400


def feed_quorum(serve, updates, start, end):
    """Like :func:`feed_updates`, but quorum sheds retry: the status is
    retryable and route updates are idempotent, so re-sending a batch
    the primary already journaled converges to the same table."""
    async def go():
        conn = _Connection()
        conn.host, conn.port = serve
        await conn.ensure_open()
        acked = None
        try:
            for i in range(start, end, FEED_BATCH):
                for _ in range(50):
                    response = await conn.request(
                        protocol.OP_UPDATE,
                        updates=updates[i:i + FEED_BATCH],
                        timeout=30,
                    )
                    if response.status == protocol.STATUS_OK:
                        break
                    assert (
                        response.status == protocol.STATUS_QUORUM_TIMEOUT
                    ), response.text
                    await asyncio.sleep(0.1)
                else:
                    raise AssertionError("quorum never formed")
                acked = json.loads(response.text)["seqno"]
        finally:
            await conn.close()
        return acked

    return asyncio.run(go())


def _close_node(node):
    if node["proc"].poll() is None:
        node["proc"].kill()
        node["proc"].wait()
    node["proc"].stdout.close()
    node["proc"].stderr.close()


class TestQuorumChaos:
    def test_min_insync_one_loses_zero_acked_records(self, tmp_path):
        """SIGKILL the primary the instant the last quorum-acked write
        returns: the monitor-promoted replica must already hold every
        acked record (the client ack waited for the replica's ack), and
        its recovered table must be fingerprint-identical to the
        crash-free oracle."""
        updates = generate_update_stream(base_rib(), QUORUM_STREAM, seed=88)
        oracle = TransactionalPoptrie(rib=base_rib())
        oracle.apply_stream(updates)
        pdir = str(tmp_path / "p")
        seed_journal(pdir, base_rib())
        primary = spawn_node(
            pdir, "p", extra=("--min-insync", "1", "--quorum-timeout", "5000")
        )
        replica = None
        try:
            replica = spawn_node(
                str(tmp_path / "r"), "r", primary=primary["repl"]
            )
            acked = feed_quorum(primary["serve"], updates, 0, QUORUM_STREAM)
            assert acked >= QUORUM_STREAM
            primary["proc"].kill()
            primary["proc"].wait()
            # Monitor-driven promotion through the daemon CLI; its JSON
            # event stream is the machine-readable failover record.
            monitor = subprocess.run(
                [
                    sys.executable, "-m", "repro", "monitor",
                    "--primary",
                    f"{primary['repl'][0]}:{primary['repl'][1]}",
                    "--replica",
                    f"{replica['repl'][0]}:{replica['repl'][1]}",
                    "--promote-on-failure", "--interval", "0.05",
                    "--probe-timeout", "0.5", "--misses-to-fail", "2",
                ],
                cwd=REPO_DIR, env=subprocess_env(),
                capture_output=True, text=True, timeout=60,
            )
            assert monitor.returncode == 0, monitor.stderr
            events = [
                json.loads(line) for line in monitor.stdout.splitlines()
            ]
            kinds = [event["event"] for event in events]
            assert "promoted" in kinds
            transitions = [
                (e["from"], e["to"])
                for e in events if e["event"] == "transition"
            ]
            assert ("down", "failed_over") in transitions
            # THE bounded-loss contract: zero acked-record loss, with no
            # live primary left to catch up from.
            info = node_info(replica["repl"])
            assert info["role"] == "primary"
            assert info["applied_seqno"] >= acked
            # Cold-start fingerprint: recover the promoted node's journal
            # and compare the compiled structure byte for byte.
            replica["proc"].send_signal(signal.SIGTERM)
            assert replica["proc"].wait(timeout=30) == 0
            result = recover(replica["dir"])
            assert result.applied_seqno >= acked
            assert route_set(result.rib) == route_set(oracle.rib)
            assert structure_to_bytes(
                Poptrie.from_rib(result.rib)
            ) == structure_to_bytes(Poptrie.from_rib(oracle.rib))
        finally:
            _close_node(primary)
            if replica is not None:
                _close_node(replica)

    def test_quorum_off_loss_window_is_measured(self, tmp_path):
        """The asynchronous-replication baseline the quorum mode exists
        to close: after the same SIGKILL, acked-but-unshipped records
        are simply gone.  The window's *size* is timing-dependent, so it
        is measured and reported rather than asserted non-zero."""
        updates = generate_update_stream(base_rib(), QUORUM_STREAM, seed=89)
        pdir = str(tmp_path / "p")
        seed_journal(pdir, base_rib())
        primary = spawn_node(pdir, "p")
        replica = None
        try:
            replica = spawn_node(
                str(tmp_path / "r"), "r", primary=primary["repl"]
            )
            acked = feed_updates(primary["serve"], updates, 0, QUORUM_STREAM)
            assert acked == QUORUM_STREAM
            primary["proc"].kill()
            primary["proc"].wait()
            time.sleep(1.0)  # let in-flight frames settle
            applied = node_info(replica["repl"])["applied_seqno"]
            loss = acked - applied
            assert 0 <= loss <= acked
            print(f"quorum-off loss window: {loss}/{acked} acked records")
        finally:
            _close_node(primary)
            if replica is not None:
                _close_node(replica)
