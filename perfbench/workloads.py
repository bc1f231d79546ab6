"""The two workloads.  Each returns a :class:`Result`.

Every workload runs its phases in ``inputs.ROUNDS`` rounds, one after the
other, and each metric pools or takes the median over all rounds: the
machine's speed drifts in spells of seconds, and a metric measured in one
stretch of the run would hang on one spell.

- ``served-lookup``: ``repro serve --journal`` on an RV-linx-p46-shaped
  table.  Per round: open-loop Poisson lookups at 2,000 req/s (16 keys,
  §4.7 real-trace keys, 2 connections), a closed loop of 64-key
  requests, the update path on an otherwise idle server (update messages
  of one update, one at a time), and a burst of 2 × 32 updates fired at
  once.
- ``bulk-lookup``: the library in this process.  ``Poptrie18.from_rib``
  on the p46 table and the §4.10 IPv6 table, then per round
  ``lookup_batch`` over 65,536-key xorshift batches (§4.2) on both, and
  update messages through ``TransactionalPoptrie.apply_stream`` with no
  journal and no wire.  Each build is scaled to the nominal machine
  speed by reference blocks timed just before and after it, each
  ``CHUNK_S`` of lookups by memory blocks (see :mod:`machine`).

Update times, in both workloads, are scaled to the nominal speed message
by message (see :class:`_Updates`).

Served lookup keys avoid every prefix the stream touches, so every
served answer is checked against a fixed scalar RIB oracle; after the
stream a probe set is checked against RIB + stream.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import inputs
from machine import NOMINAL_MEMORY_S, NOMINAL_S, SpeedProbe, cpu_ticks, steal_share
import spans as tracing
from stats import due_latencies, median, slice_rates, sliced_percentile, tail
from wire import Client, lookup_request, update_request

ROUNDS = inputs.ROUNDS
#: Requests in flight per connection in the closed loop.  Two
#: connections × 128 × 64 keys keep twice ``max_batch`` queued, so the
#: dispatcher never waits out its coalescing window.
CLOSED_WINDOW = 128
#: Lookup latency percentiles are taken per slice of this many requests
#: (calls, in bulk) in time order, ~0.5 s of the open loop, and the
#: median over the slices is reported.
LATENCY_SLICE = 1000
#: Keys per bulk ``lookup_batch`` call, and distinct batches cycled.
BULK_KEYS = 65536
BULK_BATCHES = 8
#: Lanes per bulk batch checked against the scalar oracle, each round.
BULK_SAMPLE = 256
#: Bulk lookups are timed in chunks of about this many seconds, between
#: reference blocks; ``lookup_max_kps`` is the median chunk.
CHUNK_S = 0.125
#: Set-ups per run (server spawns, bulk builds); ``setup_s`` is their
#: median (of two spawns, their mean).  A spawn takes ~14 s, so a third
#: one would not fit the run budget.
SERVED_SETUPS = 2
BULK_SETUPS = 3
#: An open-loop run is invalid when the generator sent its median
#: request later than this after its due time: it could not keep its
#: schedule.  A stall of the generator (the host taking its CPU away)
#: delays a few requests by more; due-time latency already charges it
#: to every request it delayed, so it does not void the run.
LAG_LIMIT_US = 1000.0
#: ``lookup_max_kps`` measures the server only when the server was this
#: busy, over the time its CPUs were not stolen by the host; otherwise
#: the run says the figure is not valid (the client could not keep up).
SATURATED = 0.9


class Invalid(Exception):
    """The run cannot be measured (the generator fell behind, ...)."""


@dataclass
class Result:
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: Span windows for the trace analysis (see :func:`spans.analyze`).
    windows: Dict[str, list] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Metrics the run could not measure validly.
    warnings: List[str] = field(default_factory=list)
    #: ``/proc/stat`` when the run started, for its steal share.
    ticks: List[int] = field(default_factory=cpu_ticks)

    def count(self, requests) -> None:
        for request in requests:
            self.attempted += 1
            if request.error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(request.error)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _stream(data) -> list:
    from repro.data.updates import Update
    from repro.net.prefix import Prefix

    return [
        Update("W" if kind else "A", Prefix(int(value), int(length), 32),
               0 if kind else int(hop))
        for kind, value, length, hop in zip(
            data["stream_kind"], data["stream_value"],
            data["stream_length"], data["stream_nexthop"],
        )
    ]


def _lag_us(requests, q: float) -> float:
    """How late the generator sent its requests, percentile ``q``."""
    return tail([(r.sent - r.due) * 1e6 for r in requests], q)


class _Updates:
    """Update latencies pooled over the rounds, and each round's burst
    rate, at the nominal machine speed.

    The host switches the machine between speeds ~1.4x apart for spells
    of a fraction of a second to a minute, and an update's cost follows.
    So each update message and each burst is scaled by ``NOMINAL_S``
    over the mean of the reference blocks timed just before and just
    after it; the block after a steady message is the one before the
    next message (or burst).  The block runs no code of the program, so
    a change to the program moves the scaled figure as it moves the raw
    one.
    """

    def __init__(self, probe=None) -> None:
        self.probe = probe or SpeedProbe()
        self.latencies: List[float] = []
        self.burst_rates: List[float] = []
        #: The last steady message's time and the block before it, until
        #: the block after it is timed.
        self._open = None

    def _block(self) -> float:
        """A block timed now, which closes the open steady message."""
        block = self.probe.block_s()
        if self._open is not None:
            seconds, before = self._open
            self.latencies.append(seconds * NOMINAL_S / ((before + block) / 2))
            self._open = None
        return block

    def steady(self, send) -> None:
        """One message; ``send()`` returns how long it took."""
        before = self._block()
        self._open = (send(), before)

    def burst(self, messages, drain) -> None:
        """One round's burst; ``drain()`` returns how long it took."""
        before = self._block()
        seconds = drain()
        block = (before + self._block()) / 2
        self.burst_rates.append(sum(len(m) for m in messages) / (seconds * NOMINAL_S / block))

    def metrics(self) -> Dict[str, float]:
        if self._open is not None:
            self._block()
        # The median round keeps one collection of the server's large
        # heap, landing in one burst, from deciding the run.
        return {
            "update_p50_ms": median(self.latencies) * 1e3,
            "update_p90_ms": tail(self.latencies, 90) * 1e3,
            "update_burst_ups": median(self.burst_rates),
        }


# -- served workloads -----------------------------------------------------------


class _Served:
    """A ``serve`` process plus this run's private directory.

    The server is started ``SERVED_SETUPS`` times, each on a fresh
    journal, and ``setup_s`` is the mean (the median of two); all but
    the last are stopped again at once, and the last one serves the run.
    """

    def __init__(self, table: str, env: dict, trace: bool) -> None:
        from serve import Server

        base = os.path.join(inputs.ROOT, ".perfbench_tmp")
        os.makedirs(base, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=base)
        self.spans = os.path.join(self.workdir, "spans.json") if trace else None
        self.server = None
        setups = []
        try:
            for i in range(SERVED_SETUPS):
                last = i == SERVED_SETUPS - 1
                journal = os.path.join(self.workdir, f"journal-{i}")
                self.server = Server(["--table", table, "--journal", journal],
                                     self.workdir, env, self.spans if last else None)
                setups.append(self.server.setup_s)
                if not last:
                    self._stop()
                    shutil.rmtree(journal)
        except BaseException:
            if self.server is not None:
                self.server.stop()
            shutil.rmtree(self.workdir)
            raise
        self.setup_s = sum(setups) / len(setups)

    def _stop(self) -> None:
        code = self.server.stop()
        if code != 0:
            raise RuntimeError(f"serve exited with {code}:\n{self.server.log()}")

    def close(self, result: Result) -> None:
        """Stop the server, read its spans, remove every file it left."""
        from serve import orphans

        try:
            self._stop()
            if orphans(self.workdir):
                raise RuntimeError("a serve process outlived the run")
            if self.spans:
                records, extras = tracing.load(self.spans)
                result.layers.update(
                    tracing.analyze(records, extras, windows=result.windows)
                )
        finally:
            shutil.rmtree(self.workdir)
        if os.path.exists(self.workdir):
            raise RuntimeError(f"left {self.workdir} behind")


def _open_rounds(data) -> list:
    """The open-loop lookups of each round, due from the round's start."""
    rounds = [[] for _ in range(ROUNDS)]
    for i, (due, r, keys, expected) in enumerate(zip(
        data["open_offsets"], data["open_round"], data["open_keys"], data["open_expected"]
    )):
        request = lookup_request(i % 2, keys, expected)
        request.due = float(due)
        rounds[int(r)].append(request)
    return rounds


class _OpenLoop:
    """Open-loop lookups, pooled over the rounds."""

    def __init__(self, result: Result) -> None:
        self.result = result
        self.requests: List = []
        self.cpu = self.busy = 0.0

    def add(self, phase, lookups) -> None:
        self.result.count(phase.requests)
        self.requests += lookups
        self.cpu += phase.cpu_s
        self.busy += phase.ended - phase.started
        self.result.windows.setdefault("requests", []).append((phase.started, phase.ended))

    def record(self) -> None:
        result, lookups = self.result, self.requests
        lag = _lag_us(lookups, 50)
        if lag > LAG_LIMIT_US:
            raise Invalid(f"the generator ran {lag:.0f} us late at p50")
        answered = sorted((r for r in lookups if r.error is None), key=lambda r: r.due)
        latencies = [v * 1e6 for v in due_latencies((r.due, r.done) for r in answered)]
        for q in (50, 99):
            result.layers[f"lookup.latency_p{q}_us"] = sliced_percentile(latencies, q, LATENCY_SLICE)
        result.layers["client.lag_p99_us"] = _lag_us(lookups, 99)
        result.layers["client.cpu_util"] = self.cpu / self.busy
        result.layers["lookup.v6_mlps"] = 0.0


class _ClosedLoop:
    """Rounds of 64-key requests that saturate the server, on two
    connections; keys per second over 0.25 s slices, median over all
    slices of all rounds."""

    def __init__(self, server, data, seconds: float, result: Result) -> None:
        self.server, self.seconds, self.result = server, seconds, result
        self.templates = {0: [], 1: []}
        for i, (keys, expected) in enumerate(zip(data["closed_keys"], data["closed_expected"])):
            self.templates[i % 2].append(lookup_request(i % 2, keys, expected))
        self.slices: List[float] = []
        self.cpu = self.available = 0.0

    def round(self, client) -> None:
        cpu0, ticks0 = self.server.cpu_s(), cpu_ticks()
        phase = client.run([], closed=self.templates, window=CLOSED_WINDOW, until=self.seconds)
        self.cpu += self.server.cpu_s() - cpu0
        stolen = steal_share(ticks0, cpu_ticks())
        self.available += (phase.ended - phase.started) * (1.0 - stolen)
        self.result.count(phase.requests)
        done = [(r.done, r.keys) for r in phase.requests if r.error is None]
        self.slices += slice_rates(done, phase.started, self.seconds)
        self.result.windows.setdefault("lookups", []).append((phase.started, phase.ended))

    def record(self) -> None:
        util = self.cpu / self.available
        if util < SATURATED:
            self.result.warnings.append(
                f"lookup_max_kps is not valid: the closed loop left the server {util:.0%} busy"
            )
        self.result.metrics["lookup_max_kps"] = median(self.slices) / 1e3
        self.result.layers["server.cpu_util"] = util


def _probe(client, data, result: Result) -> None:
    """Served answers after the stream against RIB + stream."""
    keys, expected = data["probe_keys"], data["probe_expected"]
    size = inputs.CLOSED_KEYS
    requests = [
        lookup_request(0, keys[i:i + size], expected[i:i + size])
        for i in range(0, len(keys), size)
    ]
    result.count(client.run(requests).requests)


def _server_layers(server, result: Result) -> None:
    stats = server.stats()
    result.metrics["rss_mib"] = server.peak_rss_mib()
    handle = stats["handle"]
    journal = stats.get("journal", {})
    result.layers.update({
        "service.mean_coalesced": stats["mean_coalesced"],
        "service.shed": float(stats["shed_overload"] + stats["shed_deadline"]),
        "handle.swaps": float(handle["swaps"]),
        "handle.drain_us": (
            handle["drain_seconds_total"] / handle["swaps"] * 1e6 if handle["swaps"] else 0.0
        ),
        "journal.fsyncs": journal.get("fsyncs", 0) / inputs.STREAM_LENGTH,
    })


def served_lookup(seed: int, seconds: int, env: dict, trace: bool) -> Result:
    data = inputs.ensure("served-lookup", seed, seconds, env)
    rounds = inputs.messages(_stream(data))
    result = Result()
    served = _Served(inputs.table_path("p46"), env, trace)
    try:
        server = served.server
        result.metrics["setup_s"] = served.setup_s
        opened, updates = _OpenLoop(result), _Updates()
        closed = _ClosedLoop(server, data, seconds * inputs.CLOSED_SHARE / ROUNDS, result)
        with Client(server.port, 2) as client:
            for lookups, (steady, burst) in zip(_open_rounds(data), rounds):
                opened.add(client.run(lookups), lookups)
                closed.round(client)
                # The update path on an otherwise idle server: each
                # message sent when the previous one is acknowledged.
                def send(messages):
                    requests = [update_request(0, m) for m in messages]
                    result.count(client.run(requests).requests)
                    return max(r.done for r in requests) - min(r.sent for r in requests)

                for message in steady:
                    updates.steady(lambda: send([message]))
                updates.burst(burst, lambda: send(burst))
            _probe(client, data, result)
        opened.record()
        closed.record()
        result.metrics.update(updates.metrics())
        _server_layers(server, result)
    finally:
        served.close(result)
    return result


# -- the in-process workload ------------------------------------------------------


def _peak_rss_mib() -> float:
    with open("/proc/self/status") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _timed_calls(structure, batches, seconds: float, probe=None):
    """``lookup_batch`` over the batches, cycled, for ``seconds``, in
    chunks of about ``CHUNK_S``; each call's ``(start, duration)``, each
    chunk's keys per second of ``lookup_batch`` time scaled to the
    nominal speed by the mean of memory blocks timed just before and
    just after the chunk (with a ``probe``), the digest of each batch's
    first result and the results of the last pass."""
    calls, rates, first, last = [], [], {}, {}
    clock = time.perf_counter
    block = probe.memory_s if probe else lambda: NOMINAL_MEMORY_S
    chunks = max(round(seconds / CHUNK_S), 1)
    before = block()
    i = 0
    for _ in range(chunks):
        keys = busy = 0.0
        stop = clock() + seconds / chunks
        while clock() < stop or i < len(batches):
            batch = batches[i % len(batches)]
            t0 = clock()
            out = structure.lookup_batch(batch)
            calls.append((t0, clock() - t0))
            keys += len(batch)
            busy += calls[-1][1]
            if i < len(batches):
                first[i] = hashlib.sha256(out.tobytes()).hexdigest()
            last[i % len(batches)] = out
            i += 1
        after = block()
        rates.append(keys / busy * (before + after) / 2 / NOMINAL_MEMORY_S)
        before = after
    return calls, rates, first, last


def _check_batches(result: Result, rib, batches, first, last) -> None:
    """Every pass over a batch must hash the same as the round's first,
    and sampled lanes must match the scalar oracle."""
    for i, keys in enumerate(batches):
        out = last[i]
        result.check(hashlib.sha256(out.tobytes()).hexdigest() == first[i],
                     "bulk results changed between passes")
        lanes = np.linspace(0, len(keys) - 1, BULK_SAMPLE).astype(int)
        result.check(
            all(rib.lookup(int(keys[j])) == int(out[j]) for j in lanes),
            "bulk result differs from the scalar oracle",
        )


def _apply(txn, message, result: Result) -> float:
    """One ``apply_stream`` call; its duration."""
    t0 = time.perf_counter()
    report = txn.apply_stream(message, on_error="skip")
    elapsed = time.perf_counter() - t0
    result.check(report.applied == len(message), f"rejected updates: {report.errors}")
    return elapsed


def bulk_lookup(seed: int, seconds: int, env: dict, trace: bool) -> Result:
    from repro.data import tableio
    from repro.data.traffic import random_addresses, random_addresses_v6
    from repro.lookup import registry
    from repro.robust.txn import TransactionalPoptrie

    data = inputs.ensure("bulk-lookup", seed, seconds, env)
    rounds = inputs.messages(_stream(data))
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = Result()
    probe = SpeedProbe()
    rib = tableio.load_table(inputs.table_path("p46"))
    rib6 = tableio.load_table(inputs.table_path("v6"))
    engine = registry.get("Poptrie18")
    builds = []
    for _ in range(BULK_SETUPS):
        structure = v6 = None  # free the previous build before the next
        before = probe.median_block_s()
        t0 = time.perf_counter()
        structure = engine.from_rib(rib)
        v6 = engine.from_rib(rib6)
        elapsed = time.perf_counter() - t0
        block = (before + probe.median_block_s()) / 2
        builds.append(elapsed * NOMINAL_S / block)
    result.metrics["setup_s"] = median(builds)

    keys = random_addresses(BULK_KEYS * BULK_BATCHES, seed=seed or 1)
    batches = list(keys.reshape(BULK_BATCHES, BULK_KEYS))
    keys6 = [random_addresses_v6(BULK_KEYS, seed=seed or 1)]
    # The §4.9 update stream through the library: no wire, no journal.
    # It updates ``structure`` and ``rib`` in place, between lookups.
    txn = TransactionalPoptrie(rib=rib, trie=structure)
    calls, calls6, rates, updates = [], [], [], _Updates(probe)
    cpu = 0.0
    for steady, burst in rounds:
        cpu0 = sum(os.times()[:2])
        phase, chunks, first, last = _timed_calls(
            structure, batches, seconds * inputs.BULK_V4_SHARE / ROUNDS, probe
        )
        cpu += sum(os.times()[:2]) - cpu0
        calls += phase
        rates += chunks
        result.windows.setdefault("lookups", []).append((phase[0][0], phase[-1][0] + phase[-1][1]))
        _check_batches(result, rib, batches, first, last)
        phase, _, first, last = _timed_calls(v6, keys6, seconds * inputs.BULK_V6_SHARE / ROUNDS)
        calls6 += phase
        _check_batches(result, rib6, keys6, first, last)
        for message in steady:
            updates.steady(lambda: _apply(txn, message, result))
        updates.burst(burst, lambda: sum(_apply(txn, m, result) for m in burst))
    result.attempted += len(calls) + len(calls6)
    durations = [d * 1e6 for _, d in calls]
    for q in (50, 99):
        result.layers[f"lookup.latency_p{q}_us"] = sliced_percentile(durations, q, LATENCY_SLICE)
    result.metrics["lookup_max_kps"] = median(rates) / 1e3
    result.metrics.update(updates.metrics())
    result.check(
        np.array_equal(txn.trie.lookup_batch(data["probe_keys"]), data["probe_expected"]),
        "table after the stream differs from RIB + stream",
    )
    result.metrics["rss_mib"] = _peak_rss_mib()
    if tracer is not None:
        result.layers.update(tracing.analyze(
            tracer.spans, tracer.extras(), BULK_SETUPS, windows=result.windows
        ))
        result.layers.update({
            "client.lag_p99_us": 0.0,
            "client.cpu_util": cpu / sum(d for _, d in calls),
            "server.cpu_util": 0.0,
            "service.mean_coalesced": 0.0,
            "service.shed": 0.0,
            "handle.swaps": 0.0,
            "handle.drain_us": 0.0,
            "journal.fsyncs": 0.0,
        })
    result.layers["lookup.v6_mlps"] = BULK_KEYS * len(calls6) / sum(d for _, d in calls6) / 1e6
    return result


WORKLOADS = {
    "served-lookup": served_lookup,
    "bulk-lookup": bulk_lookup,
}


def env_for(root: str) -> dict:
    """The environment the program and the input generator run in."""
    env = dict(os.environ)
    paths = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    env["PYTHONPATH"] = os.pathsep.join(paths + [p for p in [env.get("PYTHONPATH")] if p])
    return env
