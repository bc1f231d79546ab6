"""The server-throughput bench scenario: the perf trajectory's baseline.

Everything the other benchmarks measure is an in-process loop; this
scenario measures the *served* system — asyncio server, wire protocol,
request coalescing and an RCU hot swap, all under open-loop load — and
persists one JSON artifact (``BENCH_server.json``) with throughput and
p50/p99/p999 latency so successive PRs can be compared number-for-number.

The mid-run hot swap is driven the way production would drive it: a
route announcement is applied to a fresh build of the served entry off
to the side, and that structure is published through
:meth:`~repro.server.handle.TableHandle.swap_async` while the load
generator keeps firing.  Zero errored responses across
the swap is part of the scenario's contract (the CI smoke job asserts
it).
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from repro.data.updates import Update
from repro.net.prefix import Prefix
from repro.server import (
    LoadGenConfig,
    LoadGenerator,
    LookupServer,
    ServerConfig,
    TableHandle,
)

#: The prefix the mid-run update announces (kept clear of the
#: synthesised tables' 1.0.0.0-223.255.255.255 unicast spread by using a
#: /9 more specific inside 198.0.0.0/8 with a distinctive next hop).
SWAP_PREFIX = "198.128.0.0/9"
SWAP_NEXTHOP = 1


def run_server_bench(
    routes: int = 20_000,
    nexthops: int = 16,
    algorithm: str = "Poptrie18",
    duration: float = 2.0,
    rate: float = 2000.0,
    connections: int = 4,
    batch: int = 16,
    max_batch: int = 8192,
    max_wait_us: float = 200.0,
    schedule: str = "poisson",
    seed: int = 7,
    swap_mid_run: bool = True,
) -> dict:
    """Run the scenario once; returns the JSON-ready result dict."""
    return asyncio.run(
        _run(
            routes=routes,
            nexthops=nexthops,
            algorithm=algorithm,
            duration=duration,
            rate=rate,
            connections=connections,
            batch=batch,
            max_batch=max_batch,
            max_wait_us=max_wait_us,
            schedule=schedule,
            seed=seed,
            swap_mid_run=swap_mid_run,
        )
    )


async def _run(
    routes: int,
    nexthops: int,
    algorithm: str,
    duration: float,
    rate: float,
    connections: int,
    batch: int,
    max_batch: int,
    max_wait_us: float,
    schedule: str,
    seed: int,
    swap_mid_run: bool,
) -> dict:
    from repro.data.synth import generate_table
    from repro.data.traffic import random_addresses
    from repro.lookup.registry import get as get_algorithm

    rib, _ = generate_table(
        n_prefixes=routes, n_nexthops=nexthops, seed=seed
    )
    entry = get_algorithm(algorithm)
    structure = entry.from_rib(rib)
    handle = TableHandle(structure)
    server = LookupServer(
        handle,
        ServerConfig(max_batch=max_batch, max_wait_us=max_wait_us),
        rebuild=lambda: entry.from_rib(rib),
    )
    host, port = await server.start()
    generator = LoadGenerator(
        host,
        port,
        LoadGenConfig(
            connections=connections,
            rate=rate,
            duration=duration,
            batch=batch,
            schedule=schedule,
            seed=seed,
        ),
        keys=random_addresses(1 << 15, seed=seed),
    )
    load = asyncio.create_task(generator.run())
    swap_generation: Optional[int] = None
    if swap_mid_run:
        await asyncio.sleep(duration / 2)
        swap_generation = await _update_and_swap(handle, entry, rib)
    report = await load
    stats = server.describe()
    await server.stop()
    result = {
        "scenario": "server_throughput",
        "algorithm": algorithm,
        "routes": len(rib),
        "config": {
            "duration_s": duration,
            "target_rate_rps": rate,
            "connections": connections,
            "keys_per_request": batch,
            "max_batch": max_batch,
            "max_wait_us": max_wait_us,
            "schedule": schedule,
            "seed": seed,
            "swap_mid_run": swap_mid_run,
        },
        "throughput_rps": round(report.throughput_rps, 3),
        "throughput_klps": round(report.throughput_klps(batch), 3),
        "latency_us": report.to_dict(batch)["latency_us"],
        "errors": report.errors,
        "swap_generation": swap_generation,
        "loadgen": report.to_dict(batch),
        "server": stats,
    }
    return result


async def _update_and_swap(handle: TableHandle, entry, rib) -> int:
    """Announce one route on a fresh build of ``entry`` and hot-swap it
    in: the update owns the table's consistency, the handle owns
    publication."""
    replacement = await asyncio.to_thread(entry.from_rib, rib)
    replacement.apply_updates(
        [Update("A", Prefix.parse(SWAP_PREFIX), SWAP_NEXTHOP)]
    )
    return await handle.swap_async(replacement)


def emit_server_bench(path: str = "BENCH_server.json", **kwargs) -> dict:
    """Run the scenario and persist the artifact; returns the result."""
    result = run_server_bench(**kwargs)
    with open(path, "w") as stream:
        json.dump(result, stream, indent=2, sort_keys=False)
        stream.write("\n")
    return result
