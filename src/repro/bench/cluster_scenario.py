"""The replicated-cluster bench scenario: scaling grid + failover curve.

Two questions this scenario answers with one JSON artifact
(``BENCH_cluster.json``):

1. **Scaling** — for each (shards × replicas) cell, a full in-process
   cluster is stood up (one primary journal, checkpoint-shipped to every
   replica over the real replication channel) and driven through the
   sharded :class:`~repro.cluster.router.ClusterRouter` by the open-loop
   load generator.  Every response is cross-checked against an oracle
   Poptrie built from the same RIB, so the grid doubles as a correctness
   sweep of prefix-range routing.

2. **Failover** — for each replica count, a small update stream is
   applied through the primary (so promotion has a real watermark to
   protect), the primary is stopped mid-load, and the scenario measures
   the *read blackout* the router observes (time until the next routed
   batch succeeds through a replica) and the *promotion latency* of
   :func:`~repro.cluster.router.elect_and_promote`, then proves the
   promoted node accepts writes.

3. **Quorum cost** — the write-latency price of ``--min-insync``: the
   same update stream is driven over the wire against a one-replica
   cluster with quorum acknowledgement off (``min_insync=0``, ack after
   the local group commit) and on (``min_insync=1``, ack only after the
   replica's durable ACK returns), yielding the per-batch ``OP_UPDATE``
   latency percentiles for both durability modes side by side.

Everything runs in one process on loopback — the numbers characterise
the protocol and router overheads, not a datacentre network.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import tempfile
import time
from typing import List, Sequence, Tuple

from repro.cluster import Replica, ClusterRouter, build_shard_map
from repro.cluster.router import RouterConfig, elect_and_promote
from repro.core.poptrie import Poptrie
from repro.errors import ClusterError
from repro.robust.journal import Journal
from repro.server import LoadGenConfig, LoadGenerator

#: How long a cell may take to checkpoint-sync all replicas before the
#: scenario gives up (loopback shipping is milliseconds; the margin is
#: for slow CI machines).
SYNC_TIMEOUT_S = 20.0


def run_cluster_bench(
    routes: int = 4_000,
    nexthops: int = 16,
    duration: float = 1.0,
    rate: float = 600.0,
    batch: int = 16,
    shard_counts: Sequence[int] = (1, 2),
    replica_counts: Sequence[int] = (0, 1),
    failover_replicas: Sequence[int] = (1, 2),
    quorum_insync: Sequence[int] = (0, 1),
    updates: int = 200,
    seed: int = 7,
) -> dict:
    """Run the scenario once; returns the JSON-ready result dict."""
    return asyncio.run(
        _run(
            routes=routes,
            nexthops=nexthops,
            duration=duration,
            rate=rate,
            batch=batch,
            shard_counts=tuple(shard_counts),
            replica_counts=tuple(replica_counts),
            failover_replicas=tuple(failover_replicas),
            quorum_insync=tuple(quorum_insync),
            updates=updates,
            seed=seed,
        )
    )


async def _run(
    routes: int,
    nexthops: int,
    duration: float,
    rate: float,
    batch: int,
    shard_counts: Tuple[int, ...],
    replica_counts: Tuple[int, ...],
    failover_replicas: Tuple[int, ...],
    quorum_insync: Tuple[int, ...],
    updates: int,
    seed: int,
) -> dict:
    from repro.data.synth import generate_table

    rib, _ = generate_table(n_prefixes=routes, n_nexthops=nexthops, seed=seed)
    grid = []
    for shards in shard_counts:
        for replicas in replica_counts:
            grid.append(
                await _scaling_cell(
                    rib, shards, replicas, duration, rate, batch, seed
                )
            )
    failover = []
    for replicas in failover_replicas:
        failover.append(
            await _failover_cell(
                rib, replicas, duration, rate, batch, updates, seed
            )
        )
    quorum = []
    for min_insync in quorum_insync:
        quorum.append(await _quorum_cell(rib, min_insync, updates, seed))
    return {
        "scenario": "cluster",
        "routes": len(rib),
        "config": {
            "duration_s": duration,
            "target_rate_rps": rate,
            "keys_per_request": batch,
            "shard_counts": list(shard_counts),
            "replica_counts": list(replica_counts),
            "failover_replicas": list(failover_replicas),
            "quorum_insync": list(quorum_insync),
            "updates": updates,
            "seed": seed,
        },
        "grid": grid,
        "failover": failover,
        "quorum": quorum,
    }


async def _start_cluster(
    tmp: str, rib, replicas: int
) -> Tuple[List[Replica], List[str], List[str]]:
    """One primary seeded with ``rib`` plus ``replicas`` followers.

    Returns ``(nodes, serve_endpoints, repl_endpoints)`` with the
    primary first, every replica checkpoint-synced to the primary's
    route count before returning.
    """
    primary_dir = os.path.join(tmp, "primary")
    os.makedirs(primary_dir)
    journal = Journal(primary_dir)
    journal.checkpoint(rib)
    journal.close()

    nodes = [Replica(primary_dir, name="primary")]
    (host, port), (repl_host, repl_port) = await nodes[0].start()
    serve_endpoints = [f"{host}:{port}"]
    repl_endpoints = [f"{repl_host}:{repl_port}"]
    for index in range(replicas):
        node = Replica(
            os.path.join(tmp, f"replica{index}"),
            primary=(repl_host, repl_port),
            name=f"replica{index}",
        )
        (h, p), (rh, rp) = await node.start()
        nodes.append(node)
        serve_endpoints.append(f"{h}:{p}")
        repl_endpoints.append(f"{rh}:{rp}")
    await _wait_synced(nodes, len(rib), nodes[0].applied_seqno)
    return nodes, serve_endpoints, repl_endpoints


async def _wait_synced(
    nodes: Sequence[Replica], route_count: int, seqno: int
) -> None:
    deadline = time.monotonic() + SYNC_TIMEOUT_S
    while True:
        synced = all(
            node.info()["routes"] == route_count
            and node.applied_seqno >= seqno
            for node in nodes
        )
        if synced:
            return
        if time.monotonic() > deadline:
            states = [
                (node.name, node.applied_seqno, node.info()["routes"])
                for node in nodes
            ]
            raise ClusterError(f"replicas failed to sync: {states}")
        await asyncio.sleep(0.02)


def _rotated_endpoint_sets(
    endpoints: Sequence[str], shards: int
) -> List[List[str]]:
    """Spread shard load: shard *i* prefers endpoint ``i % n``, keeping
    every other node as a failover target."""
    n = len(endpoints)
    return [
        [endpoints[(shard + offset) % n] for offset in range(n)]
        for shard in range(shards)
    ]


async def _scaling_cell(
    rib, shards: int, replicas: int, duration: float,
    rate: float, batch: int, seed: int,
) -> dict:
    from repro.data.traffic import random_addresses

    oracle = Poptrie.from_rib(rib)
    with tempfile.TemporaryDirectory() as tmp:
        nodes, serve_endpoints, _ = await _start_cluster(tmp, rib, replicas)
        shard_map = build_shard_map(
            rib, shards,
            endpoint_sets=_rotated_endpoint_sets(serve_endpoints, shards),
        )
        router = ClusterRouter(shard_map)
        generator = LoadGenerator(
            None,
            None,
            LoadGenConfig(
                rate=rate, duration=duration, batch=batch, seed=seed
            ),
            keys=random_addresses(1 << 14, seed=seed),
            oracle=oracle.lookup,
            router=router,
        )
        report = await generator.run()
        await router.close()
        for node in nodes:
            await node.stop()
    return {
        "shards": shards,
        "replicas": replicas,
        "nodes": len(nodes),
        "throughput_rps": round(report.throughput_rps, 3),
        "throughput_klps": round(report.throughput_klps(batch), 3),
        "latency_us": report.to_dict(batch)["latency_us"],
        "errors": report.errors,
        "mismatched": report.mismatched,
        "router_failovers": router.failovers,
    }


async def _failover_cell(
    rib, replicas: int, duration: float, rate: float,
    batch: int, updates: int, seed: int,
) -> dict:
    from repro.data.traffic import random_addresses
    from repro.data.updates import generate_update_stream

    with tempfile.TemporaryDirectory() as tmp:
        nodes, serve_endpoints, repl_endpoints = await _start_cluster(
            tmp, rib, replicas
        )
        primary = nodes[0]
        # Give promotion a real watermark to protect: ship a stream of
        # updates through the primary's write path and wait for every
        # replica to apply it.
        stream = generate_update_stream(rib, count=updates, seed=seed)
        primary._apply_updates(stream)
        target_seqno = primary.applied_seqno
        await _wait_synced(nodes, len(primary.txn.rib), target_seqno)
        # The oracle must reflect the *updated* table.
        oracle = Poptrie.from_rib(primary.txn.rib)

        shard_map = build_shard_map(
            primary.txn.rib, 1, endpoint_sets=[serve_endpoints]
        )
        router = ClusterRouter(shard_map, RouterConfig(retry_pause_s=0.005))
        keys = random_addresses(1 << 14, seed=seed)
        generator = LoadGenerator(
            None,
            None,
            LoadGenConfig(
                rate=rate, duration=duration, batch=batch, seed=seed
            ),
            keys=keys,
            oracle=oracle.lookup,
            router=router,
        )
        load = asyncio.create_task(generator.run())
        await asyncio.sleep(duration * 0.35)

        # Kill the primary mid-load (clean stop here; the chaos tests
        # SIGKILL real processes) and time the client-visible outage.
        killed_at = time.perf_counter()
        await primary.stop()
        probe = [int(keys[0]), int(keys[1])]
        while True:
            try:
                await router.lookup_batch(probe)
                break
            except ClusterError:
                await asyncio.sleep(0.005)
        read_blackout_ms = (time.perf_counter() - killed_at) * 1e3

        promote_started = time.perf_counter()
        promotion = await elect_and_promote(repl_endpoints[1:])
        promotion_ms = (time.perf_counter() - promote_started) * 1e3

        report = await load
        # The promoted node must accept writes where the others refuse.
        promoted = next(
            node for node in nodes[1:] if node.role == "primary"
        )
        post = promoted._apply_updates(
            generate_update_stream(promoted.txn.rib, count=8, seed=seed + 1)
        )
        await router.close()
        for node in nodes[1:]:
            await node.stop()
    return {
        "replicas": replicas,
        "seqno_at_failover": target_seqno,
        "read_blackout_ms": round(read_blackout_ms, 3),
        "promotion_ms": round(promotion_ms, 3),
        "promoted": promotion["promoted"],
        "promoted_seqno": promotion["promoted_seqno"],
        "post_failover_seqno": post["seqno"],
        "errors": report.errors,
        "mismatched": report.mismatched,
        "router_failovers": router.failovers,
    }


#: Updates per OP_UPDATE batch in the quorum cost cells — small batches
#: so the per-write quorum round trip dominates, not apply time.
QUORUM_WRITE_BATCH = 4


async def _quorum_cell(rib, min_insync: int, updates: int, seed: int) -> dict:
    """Write-latency percentiles for one durability mode.

    One primary + one replica; the update stream goes over the wire in
    :data:`QUORUM_WRITE_BATCH`-sized ``OP_UPDATE`` requests.  With
    ``min_insync=0`` the ack returns after the local group commit; with
    ``min_insync=1`` it additionally waits for the replica's durable
    ACK, so the delta between the two cells is the quorum round trip.
    """
    from repro.cluster.replication import QuorumConfig
    from repro.data.updates import generate_update_stream
    from repro.server import protocol
    from repro.server.loadgen import _Connection

    quorum = (
        QuorumConfig(min_insync=min_insync, timeout_s=10.0)
        if min_insync
        else None
    )
    stream = generate_update_stream(rib, count=updates, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        primary_dir = os.path.join(tmp, "primary")
        os.makedirs(primary_dir)
        journal = Journal(primary_dir)
        journal.checkpoint(rib)
        journal.close()
        primary = Replica(primary_dir, name="primary", quorum=quorum)
        (host, port), (repl_host, repl_port) = await primary.start()
        replica = Replica(
            os.path.join(tmp, "replica0"),
            primary=(repl_host, repl_port),
            name="replica0",
        )
        await replica.start()
        await _wait_synced([primary, replica], len(rib), primary.applied_seqno)
        conn = _Connection()
        conn.host, conn.port = host, port
        await conn.ensure_open()
        latencies = []
        sheds = 0
        try:
            for i in range(0, len(stream), QUORUM_WRITE_BATCH):
                started = time.perf_counter()
                response = await conn.request(
                    protocol.OP_UPDATE,
                    updates=stream[i:i + QUORUM_WRITE_BATCH],
                    timeout=30,
                )
                latencies.append((time.perf_counter() - started) * 1e6)
                if response.status == protocol.STATUS_QUORUM_TIMEOUT:
                    sheds += 1
                elif response.status != protocol.STATUS_OK:
                    raise ClusterError(
                        f"update refused: status {response.status}"
                    )
        finally:
            await conn.close()
        replicated = replica.applied_seqno
        await replica.stop()
        await primary.stop()

    ordered = sorted(latencies)

    def pct(q: float) -> float:
        rank = max(0, math.ceil(len(ordered) * q / 100) - 1)
        return round(ordered[min(rank, len(ordered) - 1)], 3)

    return {
        "min_insync": min_insync,
        "write_batches": len(latencies),
        "updates": len(stream),
        "quorum_sheds": sheds,
        "replica_seqno_at_close": replicated,
        "write_latency_us": {
            "mean": round(sum(ordered) / len(ordered), 3),
            "p50": pct(50),
            "p90": pct(90),
            "p99": pct(99),
        },
    }


def emit_cluster_bench(path: str = "BENCH_cluster.json", **kwargs) -> dict:
    """Run the scenario and persist the artifact; returns the result."""
    result = run_cluster_bench(**kwargs)
    with open(path, "w") as stream:
        json.dump(result, stream, indent=2, sort_keys=False)
        stream.write("\n")
    return result
