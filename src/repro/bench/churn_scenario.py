"""Sustained-churn convergence scenario: lookups under live BGP flap.

The §4.9 microbenchmarks time updates against a quiescent trie; this
scenario measures the *served* system under sustained churn — the shape
production actually cares about.  ``repro serve``'s own update pipeline
feeds a live :class:`~repro.server.service.LookupServer`:

    wire (OP_UPDATE) → check → engine stage → journal + one fsync → publish

while an open-loop :class:`~repro.server.loadgen.LoadGenerator` keeps
firing lookups, so the lookup p50/p99 recorded here is the latency
*during* churn, not between storms.  Arrival times come from
:func:`repro.data.updates.arrival_offsets` — steady Poisson churn or
bursty flap storms — and the driver is itself open-loop: update batches
fire at their scheduled instants regardless of how far the pipeline has
fallen behind, which is what exposes queueing behind the single-writer
update lock and journal flush stalls.

Four numbers summarise one run:

- **update latency** p50/p99, end-to-end over the wire, plus the
  per-stage breakdown (journal / fsync / apply / publish) the server
  reports back in each OP_UPDATE ack;
- **lookup latency** p50/p99 during churn, from the concurrent load
  generator;
- **RCU swap rate** of the served :class:`~repro.server.handle.TableHandle`
  (engines that update in place publish without a swap);
- **convergence lag**: after the last update is acked, a sentinel route
  is announced and lookups poll until they observe it — the time from
  ack to first observation is how stale a data-plane answer can be.

:func:`drive_churn` drives any live server (the CI churn-smoke job
points it at an external ``repro serve --journal`` process);
:func:`run_churn_bench` sweeps registry engines through in-process
servers — the incremental Poptrie pipeline against the measured
rebuild fallback — and emits the committed ``BENCH_churn.json``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from repro.data.updates import (
    Update,
    UpdateStream,
    arrival_offsets,
    generate_stream,
)
from repro.net.prefix import Prefix
from repro.server import (
    LoadGenConfig,
    LoadGenerator,
    LookupServer,
    ServerConfig,
    TableHandle,
    UpdatePipeline,
    protocol,
)
from repro.server.loadgen import _Connection

#: The convergence probe's sentinel route (TEST-NET-2 — outside both the
#: synthesised tables' unicast spread and the RouteViews snapshots).
SENTINEL_PREFIX = "198.51.100.0/24"

#: Engines compared by :func:`run_churn_bench`: the incremental Poptrie
#: flagship, the 16-bit variant, and two rebuild-fallback baselines.
DEFAULT_ENGINES = ("Poptrie18", "Poptrie16", "SAIL", "DIR-24-8")


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(len(ordered) * q / 100) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def _latency_summary(values: Sequence[float]) -> dict:
    return {
        "mean": round(sum(values) / len(values), 3) if values else 0.0,
        "p50": round(_percentile(values, 50), 3),
        "p90": round(_percentile(values, 90), 3),
        "p99": round(_percentile(values, 99), 3),
    }


async def drive_churn(
    host: str,
    port: int,
    *,
    updates: Sequence[Update],
    offsets: Sequence[float],
    update_batch: int = 16,
    lookup: Optional[LoadGenConfig] = None,
    keys=None,
    width: int = 32,
    sentinel: str = SENTINEL_PREFIX,
    settle_timeout: float = 30.0,
) -> dict:
    """Drive one live server through a churn run; returns the result dict.

    ``updates``/``offsets`` are a stream and its arrival schedule (same
    length); update ``i`` is fired at ``start + offsets[i]``, coalesced
    into wire batches of ``update_batch``.  ``lookup`` configures the
    concurrent load generator (its ``duration`` should cover the
    schedule; :func:`run_churn_bench` sizes it automatically).  The
    server must accept OP_UPDATE (``serve --journal`` or an
    ``apply_updates`` callable) — a STATUS_UNSUPPORTED ack raises
    immediately rather than reporting a silently idle run.
    """
    if len(updates) != len(offsets):
        raise ValueError(
            f"{len(updates)} updates but {len(offsets)} arrival offsets"
        )
    loop = asyncio.get_running_loop()
    control = _Connection()
    probe = _Connection()
    await asyncio.gather(control.open(host, port), probe.open(host, port))
    generator = LoadGenerator(
        host, port, lookup or LoadGenConfig(), keys=keys, width=width
    )
    opcode = protocol.family_opcode(width)

    wire_us: List[float] = []
    stages_us: Dict[str, List[float]] = {}
    applied = rejected = update_errors = 0
    stats_before = json.loads(
        (await control.request(protocol.OP_STATS)).text
    )

    async def fire_batch(batch: Sequence[Update]) -> None:
        nonlocal applied, rejected, update_errors
        started = time.perf_counter()
        try:
            response = await control.request(
                protocol.OP_UPDATE, updates=batch
            )
        except Exception:
            update_errors += 1
            return
        if response.status == protocol.STATUS_UNSUPPORTED:
            raise RuntimeError(
                "server refused OP_UPDATE — start it with --journal"
            )
        if not response.ok:
            update_errors += 1
            return
        wire_us.append((time.perf_counter() - started) * 1e6)
        report = json.loads(response.text) if response.text else {}
        applied += int(report.get("applied", 0))
        rejected += int(report.get("rejected", 0))
        for stage, elapsed in (report.get("stages_us") or {}).items():
            stages_us.setdefault(stage, []).append(float(elapsed))

    load_task = asyncio.create_task(generator.run())
    update_tasks: List[asyncio.Task] = []
    start = loop.time()
    # Open-loop update schedule: each wire batch fires at its first
    # member's offset, never waiting for the previous ack (the server's
    # update lock serialises applies; the wire latency we record then
    # includes the queueing the schedule caused — that is the point).
    for i in range(0, len(updates), update_batch):
        batch = list(updates[i:i + update_batch])
        delay = start + offsets[i] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        update_tasks.append(asyncio.create_task(fire_batch(batch)))
    if update_tasks:
        await asyncio.gather(*update_tasks)
    churn_span = loop.time() - start

    convergence = await _probe_convergence(
        control, probe, opcode, sentinel, width, settle_timeout
    )

    report = await load_task
    stats_after = json.loads((await probe.request(protocol.OP_STATS)).text)
    await asyncio.gather(control.close(), probe.close())

    swaps = stats_after["handle"]["swaps"] - stats_before["handle"]["swaps"]
    journal_before = stats_before.get("journal") or {}
    journal_after = stats_after.get("journal") or {}
    lookup_summary = report.to_dict(generator.config.batch)
    return {
        "duration_s": round(churn_span, 6),
        "updates": {
            "scheduled": len(updates),
            "batches": len(wire_us) + update_errors,
            "applied": applied,
            "rejected": rejected,
            "errors": update_errors,
            "achieved_rate_ups": round(applied / churn_span, 3)
            if churn_span
            else 0.0,
            "wire_latency_us": _latency_summary(wire_us),
            "stages_us": {
                stage: _latency_summary(values)
                for stage, values in sorted(stages_us.items())
            },
        },
        "lookup": lookup_summary,
        "lookup_during_churn_us": lookup_summary["latency_us"],
        "rcu": {
            "swaps": swaps,
            "swap_rate_hz": round(swaps / churn_span, 3)
            if churn_span
            else 0.0,
        },
        "journal": {
            key: journal_after.get(key, 0) - journal_before.get(key, 0)
            for key in ("flush_stalls", "appends", "fsyncs")
        } if journal_after else None,
        "convergence": convergence,
    }


async def _probe_convergence(
    control: _Connection,
    probe: _Connection,
    opcode: int,
    sentinel: str,
    width: int,
    settle_timeout: float,
) -> dict:
    """Announce a sentinel route, then poll lookups until one observes it.

    The lag from the update's ack to the first lookup returning the new
    next hop is the data plane's convergence time: for the incremental
    engine it is one subtree surgery published in place; for a rebuild
    fallback it is a full recompile of the table.
    """
    prefix = Prefix.parse(sentinel)
    if prefix.width != width:
        prefix = Prefix(prefix.value << (width - 32), prefix.length, width)
    key = prefix.value
    before = await probe.request(opcode, [key])
    old_hop = int(before.results[0])
    new_hop = 1 if old_hop != 1 else 2
    started = time.perf_counter()
    ack = await control.request(
        protocol.OP_UPDATE, updates=[Update("A", prefix, new_hop)]
    )
    acked = time.perf_counter()
    if not ack.ok:
        return {
            "observed": False,
            "error": f"sentinel announce failed (status {ack.status})",
        }
    observed_at = None
    while time.perf_counter() - acked < settle_timeout:
        response = await probe.request(opcode, [key])
        if response.ok and int(response.results[0]) == new_hop:
            observed_at = time.perf_counter()
            break
        await asyncio.sleep(0.0005)
    return {
        "observed": observed_at is not None,
        "sentinel": sentinel,
        "old_hop": old_hop,
        "new_hop": new_hop,
        "ack_us": round((acked - started) * 1e6, 3),
        "lag_s": round(observed_at - acked, 6)
        if observed_at is not None
        else None,
    }


async def _run_engine(
    entry,
    rib,
    stream: UpdateStream,
    *,
    update_batch: int,
    lookup: LoadGenConfig,
    keys,
    settle_timeout: float,
) -> dict:
    from repro.robust.journal import Journal

    structure = entry.from_rib(rib)
    handle = TableHandle(structure)
    journal_dir = tempfile.mkdtemp(prefix="repro-churn-")
    journal = Journal(journal_dir)
    server = LookupServer(
        handle,
        ServerConfig(),
        apply_updates=UpdatePipeline(structure, journal, handle),
    )
    updates = generate_stream(rib, stream)
    offsets = arrival_offsets(stream)
    host, port = await server.start()
    try:
        result = await drive_churn(
            host,
            port,
            updates=updates,
            offsets=offsets,
            update_batch=update_batch,
            lookup=lookup,
            keys=keys,
            sentinel=SENTINEL_PREFIX,
            settle_timeout=settle_timeout,
        )
    finally:
        await server.stop()
        journal.close()
        shutil.rmtree(journal_dir, ignore_errors=True)
    result["update_engine"] = structure.stats()["update_engine"]
    result["updates_applied_by_engine"] = structure.stats()["updates_applied"]
    return result


def run_churn_bench(
    dataset_name: str = "RV-linx-p52",
    scale: Optional[float] = None,
    engines: Sequence[str] = DEFAULT_ENGINES,
    regimes: Sequence[str] = ("steady", "bursty"),
    update_count: int = 1024,
    update_rate: float = 1500.0,
    update_batch: int = 16,
    burst_length: int = 64,
    burst_idle_s: float = 0.25,
    lookup_rate: float = 1200.0,
    lookup_connections: int = 2,
    lookup_batch: int = 16,
    seed: int = 52,
    settle_timeout: float = 120.0,
) -> dict:
    """Sweep registry engines through the churn scenario.

    Each (engine, regime) cell gets its own RIB copy, journal, handle
    and in-process server, so rebuild fallbacks cannot poison the next
    cell's table.  ``scale`` defaults to ``REPRO_SCALE`` (0.02, the
    tier-2 default); the committed BENCH_churn.json is recorded at 1.0.
    """
    from repro.data.datasets import load_dataset
    from repro.data.traffic import random_addresses
    from repro.lookup.registry import get as get_algorithm
    from repro.net.rib import Rib

    if scale is None:
        scale = float(os.environ.get("REPRO_SCALE", "0.02"))
    ds = load_dataset(dataset_name, scale=scale)
    base_routes = list(ds.rib.routes())
    keys = random_addresses(1 << 14, seed=seed)
    rows: List[dict] = []
    for name in engines:
        entry = get_algorithm(name)
        for regime in regimes:
            rib = Rib(width=ds.rib.width)
            for prefix, hop in base_routes:
                rib.insert(prefix, hop)
            stream = UpdateStream(
                count=update_count,
                seed=seed,
                regime=regime,
                rate=update_rate,
                burst_length=burst_length,
                burst_idle_s=burst_idle_s,
            )
            span = stream.duration_estimate()
            lookup = LoadGenConfig(
                connections=lookup_connections,
                rate=lookup_rate,
                duration=span + 0.5,
                batch=lookup_batch,
                seed=seed,
            )
            result = asyncio.run(
                _run_engine(
                    entry,
                    rib,
                    stream,
                    update_batch=update_batch,
                    lookup=lookup,
                    keys=keys,
                    settle_timeout=settle_timeout,
                )
            )
            rows.append(
                {
                    "engine": name,
                    "regime": regime,
                    "supports_incremental": entry.supports_incremental,
                    "routes": len(rib),
                    **result,
                }
            )
    return {
        "scenario": "churn_convergence",
        "dataset": dataset_name,
        "scale": scale,
        "routes": len(ds.rib),
        "config": {
            "engines": list(engines),
            "regimes": list(regimes),
            "update_count": update_count,
            "update_rate_ups": update_rate,
            "update_batch": update_batch,
            "burst_length": burst_length,
            "burst_idle_s": burst_idle_s,
            "lookup_rate_rps": lookup_rate,
            "lookup_connections": lookup_connections,
            "lookup_batch": lookup_batch,
            "seed": seed,
        },
        "rows": rows,
    }


def emit_churn_bench(path: str = "BENCH_churn.json", **kwargs) -> dict:
    """Run the sweep and persist the artifact; returns the result."""
    result = run_churn_bench(**kwargs)
    with open(path, "w") as stream:
        json.dump(result, stream, indent=2, sort_keys=False)
        stream.write("\n")
    return result
