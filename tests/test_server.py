"""End-to-end tests for the route-lookup service (repro.server).

The flagship test serves a Poptrie over real TCP, drives it with
concurrent pipelined clients, and commits a transactional route update
mid-run, hot-swapping the result through the :class:`TableHandle` —
asserting that not one response fails, misroutes, or observes a
half-published table, and that the dispatcher actually coalesced
concurrent requests into shared ``lookup_batch`` calls.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.poptrie import Poptrie
from repro.errors import ProtocolError
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.server import (
    LoadGenConfig,
    LoadGenerator,
    LookupServer,
    ServerConfig,
    TableHandle,
    protocol,
)


def small_rib() -> Rib:
    rib = Rib()
    rib.insert(Prefix.parse("0.0.0.0/0"), 9)
    rib.insert(Prefix.parse("10.0.0.0/8"), 1)
    rib.insert(Prefix.parse("10.64.0.0/10"), 2)
    rib.insert(Prefix.parse("192.0.2.0/24"), 3)
    return rib


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_request_roundtrip_v4(self):
        keys = [0, 1, 0x0A010203, 0xFFFFFFFF]
        payload = protocol.encode_request(protocol.OP_LOOKUP4, 77, keys)
        request = protocol.decode_request(payload)
        assert request.opcode == protocol.OP_LOOKUP4
        assert request.request_id == 77
        assert request.keys.dtype == np.uint64
        assert request.keys.tolist() == keys

    def test_request_roundtrip_v6(self):
        keys = [0, 1 << 100, (1 << 128) - 1]
        payload = protocol.encode_request(protocol.OP_LOOKUP6, 5, keys)
        request = protocol.decode_request(payload)
        assert request.keys.dtype == object
        assert list(request.keys) == keys

    def test_control_opcodes_take_no_keys(self):
        for opcode in (protocol.OP_PING, protocol.OP_STATS,
                       protocol.OP_RELOAD):
            request = protocol.decode_request(
                protocol.encode_request(opcode, 1)
            )
            assert len(request.keys) == 0
        with pytest.raises(ProtocolError):
            protocol.encode_request(protocol.OP_PING, 1, [4])

    def test_response_roundtrip(self):
        payload = protocol.encode_response(
            12, generation=3, results=[1, 2, 3], text=""
        )
        response = protocol.decode_response(payload)
        assert response.ok
        assert response.request_id == 12
        assert response.generation == 3
        assert response.results.tolist() == [1, 2, 3]

    def test_response_text_body(self):
        payload = protocol.encode_response(
            1, protocol.STATUS_BAD_REQUEST, text="nope"
        )
        response = protocol.decode_response(payload)
        assert not response.ok
        assert response.text == "nope"

    def test_truncated_header_raises(self):
        with pytest.raises(ProtocolError):
            protocol.decode_request(b"\x00")
        with pytest.raises(ProtocolError):
            protocol.decode_response(b"\x00\x01")

    def test_unknown_opcode_and_version(self):
        with pytest.raises(ProtocolError):
            protocol.encode_request(99, 1)
        good = protocol.encode_request(protocol.OP_PING, 1)
        with pytest.raises(ProtocolError):
            protocol.decode_request(b"\x07" + good[1:])

    def test_wrong_body_size(self):
        payload = protocol.encode_request(protocol.OP_LOOKUP4, 1, [1, 2])
        with pytest.raises(ProtocolError):
            protocol.decode_request(payload[:-1])

    def test_protocol_error_is_public_and_a_value_error(self):
        assert repro.ProtocolError is ProtocolError
        assert issubclass(ProtocolError, ValueError)
        assert issubclass(ProtocolError, repro.ReproError)

    def test_family_opcode_mapping(self):
        assert protocol.family_opcode(32) == protocol.OP_LOOKUP4
        assert protocol.family_opcode(128) == protocol.OP_LOOKUP6
        assert 32 in protocol.opcode_width(protocol.OP_LOOKUP4)
        assert 128 in protocol.opcode_width(protocol.OP_LOOKUP6)


# ---------------------------------------------------------------------------
# TableHandle (RCU semantics)
# ---------------------------------------------------------------------------


class TestTableHandle:
    def test_generation_increments_per_swap(self):
        rib = small_rib()
        handle = TableHandle(Poptrie.from_rib(rib))
        assert handle.generation == 0
        assert handle.swap(Poptrie.from_rib(rib)) == 1
        assert handle.swap(Poptrie.from_rib(rib)) == 2
        assert handle.stats()["swaps"] == 2

    def test_pinned_reader_keeps_old_table(self):
        rib = small_rib()
        old = Poptrie.from_rib(rib)
        rib.insert(Prefix.parse("10.64.0.0/12"), 7)
        new = Poptrie.from_rib(rib)
        handle = TableHandle(old)
        key = Prefix.parse("10.64.9.9/32").value
        with handle.read() as version:
            handle.swap(new, wait=False)
            # The pinned version still serves the table the batch started on.
            assert version.structure is old
            assert version.structure.lookup(key) == old.lookup(key)
        assert handle.structure is new

    def test_swap_drains_behind_reader(self):
        handle = TableHandle(Poptrie.from_rib(small_rib()))
        release = threading.Event()
        pinned = threading.Event()

        def reader():
            with handle.read():
                pinned.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=reader)
        thread.start()
        assert pinned.wait(timeout=5)
        # While the reader pins generation 0, a drain-waiting swap times out.
        with pytest.raises(TimeoutError):
            handle.swap(Poptrie.from_rib(small_rib()), timeout=0.05)
        # The swap is still visible (publication is not blocked by readers).
        assert handle.generation == 1
        release.set()
        thread.join(timeout=5)
        # Once drained, further swaps complete immediately.
        assert handle.swap(Poptrie.from_rib(small_rib()), timeout=5) == 2

    def test_swap_async_drains(self):
        async def scenario():
            handle = TableHandle(Poptrie.from_rib(small_rib()))
            generation = await handle.swap_async(
                Poptrie.from_rib(small_rib()), timeout=5
            )
            assert generation == 1

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# LookupServer end-to-end
# ---------------------------------------------------------------------------


async def _client(host, port):
    reader, writer = await asyncio.open_connection(host, port)
    return reader, writer


async def _roundtrip(reader, writer, opcode, request_id, keys=()):
    protocol.write_frame(
        writer, protocol.encode_request(opcode, request_id, keys)
    )
    await writer.drain()
    payload = await protocol.read_frame(reader)
    assert payload is not None
    return protocol.decode_response(payload)


class TestLookupServer:
    def test_lookup_ping_stats_roundtrip(self):
        async def scenario():
            rib = small_rib()
            trie = Poptrie.from_rib(rib)
            server = LookupServer(TableHandle(trie))
            host, port = await server.start()
            try:
                reader, writer = await _client(host, port)
                keys = [Prefix.parse(a + "/32").value
                        for a in ("10.1.2.3", "10.65.0.1", "192.0.2.9",
                                  "8.8.8.8")]
                response = await _roundtrip(
                    reader, writer, protocol.OP_LOOKUP4, 1, keys
                )
                assert response.ok
                assert response.results.tolist() == [
                    trie.lookup(k) for k in keys
                ]
                pong = await _roundtrip(reader, writer, protocol.OP_PING, 2)
                assert pong.ok and pong.generation == 0
                stats = await _roundtrip(reader, writer, protocol.OP_STATS, 3)
                body = json.loads(stats.text)
                assert body["requests"] >= 2
                assert body["handle"]["generation"] == 0
                writer.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_describe_states_the_window_the_loop_waits(self):
        from repro.server.service import SELECTOR_GRANULARITY_US

        settings = (0.0, 200.0, 1000.0, 1500.0)
        if SELECTOR_GRANULARITY_US == 1000.0:  # epoll / poll
            expected = [0.0, 1000.0, 1000.0, 2000.0]
        else:
            expected = list(settings)
        handle = TableHandle(Poptrie.from_rib(small_rib()))
        windows = []
        for max_wait_us in settings:
            config = LookupServer(
                handle, ServerConfig(max_wait_us=max_wait_us)
            ).describe()["config"]
            assert config["max_wait_us"] == max_wait_us
            windows.append(config["effective_wait_us"])
        assert windows == expected

        async def window_s():
            started = time.perf_counter()
            await asyncio.sleep(200e-6)
            return time.perf_counter() - started

        # The dispatcher's sleep really lasts the reported window.
        assert asyncio.run(window_s()) >= 0.9 * expected[1] / 1e6

    def test_wrong_family_and_unsupported_reload(self):
        async def scenario():
            server = LookupServer(TableHandle(Poptrie.from_rib(small_rib())))
            host, port = await server.start()
            try:
                reader, writer = await _client(host, port)
                response = await _roundtrip(
                    reader, writer, protocol.OP_LOOKUP6, 1, [1 << 80]
                )
                assert response.status == protocol.STATUS_WRONG_FAMILY
                response = await _roundtrip(
                    reader, writer, protocol.OP_RELOAD, 2
                )
                assert response.status == protocol.STATUS_UNSUPPORTED
                writer.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_oversized_request_rejected(self):
        async def scenario():
            server = LookupServer(
                TableHandle(Poptrie.from_rib(small_rib())),
                ServerConfig(max_keys_per_request=4),
            )
            host, port = await server.start()
            try:
                reader, writer = await _client(host, port)
                response = await _roundtrip(
                    reader, writer, protocol.OP_LOOKUP4, 1, list(range(8))
                )
                assert response.status == protocol.STATUS_BAD_REQUEST
                writer.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_bad_frame_gets_error_then_disconnect(self):
        async def scenario():
            server = LookupServer(TableHandle(Poptrie.from_rib(small_rib())))
            host, port = await server.start()
            try:
                reader, writer = await _client(host, port)
                protocol.write_frame(writer, b"\x01\x63")  # unknown opcode 99
                await writer.drain()
                payload = await protocol.read_frame(reader)
                response = protocol.decode_response(payload)
                assert response.status == protocol.STATUS_BAD_REQUEST
                # The server drops the connection after an unparseable frame.
                assert await protocol.read_frame(reader) is None
                writer.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_reload_rebuilds_and_bumps_generation(self):
        async def scenario():
            rib = small_rib()
            server = LookupServer(
                TableHandle(Poptrie.from_rib(rib)),
                rebuild=lambda: Poptrie.from_rib(rib),
            )
            host, port = await server.start()
            try:
                reader, writer = await _client(host, port)
                response = await _roundtrip(
                    reader, writer, protocol.OP_RELOAD, 1
                )
                assert response.ok and response.generation == 1
                assert server.stats.reloads == 1
                writer.close()
            finally:
                await server.stop()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# the flagship scenario: concurrent clients through a transactional hot swap
# ---------------------------------------------------------------------------

SWAP_PREFIX = "198.128.0.0/9"


def _outside_swap_prefix(key: int) -> bool:
    return (int(key) >> 23) != (Prefix.parse(SWAP_PREFIX).value >> 23)


class TestHotSwapUnderLoad:
    def test_concurrent_clients_across_txn_swap(self):
        from repro.data.synth import generate_table
        from repro.data.traffic import random_addresses
        from repro.robust.txn import TransactionalPoptrie

        rib, _ = generate_table(n_prefixes=4000, n_nexthops=8, seed=11)
        base = Poptrie.from_rib(rib)
        handle = TableHandle(base)
        # Query keys avoid the announced prefix, so one oracle stays exact
        # across the swap; everything else about the table changes owner.
        pool = [int(k) for k in random_addresses(4096, seed=11)
                if _outside_swap_prefix(k)]
        expected = {key: base.lookup(key) for key in pool}
        obs.enable()
        try:
            report, server = asyncio.run(
                self._scenario(handle, rib, pool, expected,
                               TransactionalPoptrie)
            )
        finally:
            registry = obs.registry()
            obs.disable()
        # Not one response failed, misrouted, or was dropped by the swap.
        assert report.errors == 0
        assert report.mismatched == 0
        assert report.completed == report.sent
        # The swap was observed mid-run: responses carry both generations.
        assert sorted(report.generations) == [0, 1]
        assert server.stats.reloads == 0  # swap came from the txn, not RELOAD
        assert handle.generation == 1
        # Coalescing really happened: at least one batch served >1 request.
        assert server.stats.max_coalesced > 1
        assert server.stats.batched_requests == report.sent
        hist = registry.histogram(
            "repro_server_coalesced_requests",
            buckets=obs.OCCUPANCY_BUCKETS,
            table=handle.name,
        )
        cumulative = dict(hist.cumulative())
        total = cumulative[float("inf")]
        assert total == server.stats.batches
        assert total > cumulative[1], "no coalesced batch held >1 request"
        swaps = registry.counter(
            "repro_server_swaps_total", table=handle.name
        )
        assert swaps.value == 1

    async def _scenario(self, handle, rib, pool, expected, txn_cls):
        server = LookupServer(
            handle, ServerConfig(max_batch=8192, max_wait_us=1000.0)
        )
        host, port = await server.start()
        generator = LoadGenerator(
            host,
            port,
            LoadGenConfig(
                connections=4, rate=3000.0, duration=1.0, batch=8,
                schedule="poisson", seed=11,
            ),
            keys=pool,
            oracle=expected.__getitem__,
        )
        load = asyncio.create_task(generator.run())
        await asyncio.sleep(0.5)
        # Control plane: commit one announcement transactionally, publish
        # the committed trie through the handle while load keeps flowing.
        txn = txn_cls(rib=rib)
        txn.announce(Prefix.parse(SWAP_PREFIX), 1)
        await handle.swap_async(txn.trie, timeout=10)
        report = await load
        await server.stop()
        return report, server


# ---------------------------------------------------------------------------
# load generator unit behaviour
# ---------------------------------------------------------------------------


class TestLoadGenerator:
    def test_arrival_schedules_are_deterministic(self):
        gen = LoadGenerator(
            "127.0.0.1", 1,
            LoadGenConfig(rate=100.0, schedule="poisson", seed=3),
            keys=[1],
        )
        a = [next(iter_gaps) for iter_gaps in (gen._arrival_gaps(),)
             for _ in range(5)]
        b_iter = gen._arrival_gaps()
        b = [next(b_iter) for _ in range(5)]
        assert a == b
        uniform = LoadGenerator(
            "127.0.0.1", 1,
            LoadGenConfig(rate=200.0, schedule="uniform"),
            keys=[1],
        )._arrival_gaps()
        assert [next(uniform) for _ in range(3)] == [1 / 200.0] * 3

    def test_unknown_schedule_rejected(self):
        gen = LoadGenerator(
            "127.0.0.1", 1, LoadGenConfig(schedule="bursty"), keys=[1]
        )
        with pytest.raises(ValueError):
            next(gen._arrival_gaps())

    def test_report_percentiles_and_render(self):
        from repro.server.loadgen import LoadReport

        report = LoadReport(
            sent=4, completed=4, duration=2.0, target_rate=2.0,
            latencies_us=[100.0, 200.0, 300.0, 400.0],
            generations={0: 3, 1: 1},
        )
        assert report.throughput_rps == 2.0
        assert report.percentile(50) == 200.0
        assert report.percentile(100) == 400.0
        summary = report.to_dict(batch=16)
        assert summary["swaps_observed"] == 1
        assert summary["throughput_klps"] == pytest.approx(0.032)
        assert "p999" in summary["latency_us"]
        assert "1 swap(s) observed" in report.render(batch=16)


# ---------------------------------------------------------------------------
# protocol v2: deadlines and backward compatibility
# ---------------------------------------------------------------------------


class TestProtocolV2:
    def test_deadline_roundtrip(self):
        payload = protocol.encode_request(
            protocol.OP_LOOKUP4, 7, [1, 2], deadline_us=1500
        )
        request = protocol.decode_request(payload)
        assert request.version == 2
        assert request.deadline_us == 1500
        assert request.keys.tolist() == [1, 2]

    def test_v1_request_still_decodes(self):
        payload = protocol.encode_request(
            protocol.OP_LOOKUP4, 7, [1, 2], version=1
        )
        request = protocol.decode_request(payload)
        assert request.version == 1
        assert request.deadline_us == 0
        assert request.keys.tolist() == [1, 2]

    def test_v1_cannot_carry_a_deadline(self):
        with pytest.raises(ProtocolError):
            protocol.encode_request(
                protocol.OP_PING, 1, deadline_us=5, version=1
            )
        with pytest.raises(ProtocolError):
            protocol.encode_request(protocol.OP_PING, 1, deadline_us=1 << 32)

    def test_truncated_deadline_field(self):
        payload = protocol.encode_request(protocol.OP_PING, 1)
        with pytest.raises(ProtocolError):
            protocol.decode_request(payload[:5])  # v2 header cut short

    def test_response_version_echo(self):
        for version in (1, 2):
            payload = protocol.encode_response(3, version=version)
            assert payload[0] == version
            assert protocol.decode_response(payload).ok

    def test_frame_bytes_matches_write_frame(self):
        payload = protocol.encode_response(1)
        frame = protocol.frame_bytes(payload)
        assert frame[4:] == payload
        assert int.from_bytes(frame[:4], "big") == len(payload)


# ---------------------------------------------------------------------------
# overload control and deadline shedding
# ---------------------------------------------------------------------------


async def _pipelined_sweep(host, port, keys_per_request, count, deadline_us=0):
    """Fire `count` lookup frames back-to-back, then gather all responses."""
    reader, writer = await _client(host, port)
    for request_id in range(1, count + 1):
        protocol.write_frame(
            writer,
            protocol.encode_request(
                protocol.OP_LOOKUP4,
                request_id,
                keys_per_request,
                deadline_us=deadline_us,
            ),
        )
    await writer.drain()
    responses = {}
    for _ in range(count):
        payload = await protocol.read_frame(reader)
        assert payload is not None
        response = protocol.decode_response(payload)
        responses[response.request_id] = response
    writer.close()
    return responses


class TestOverloadControl:
    def test_burst_beyond_admission_limit_sheds(self):
        """2x the admission limit: the excess sheds, served answers exact."""

        async def scenario():
            rib = small_rib()
            trie = Poptrie.from_rib(rib)
            server = LookupServer(
                TableHandle(trie),
                ServerConfig(
                    max_pending_requests=4,
                    max_wait_us=100_000.0,  # dispatcher naps; the queue fills
                ),
            )
            host, port = await server.start()
            keys = [Prefix.parse("10.1.2.3/32").value]
            try:
                responses = await _pipelined_sweep(host, port, keys, 16)
            finally:
                await server.stop()
            return server, responses, trie.lookup(keys[0])

        server, responses, expected = asyncio.run(scenario())
        statuses = [r.status for r in responses.values()]
        shed = statuses.count(protocol.STATUS_OVERLOAD)
        served = statuses.count(protocol.STATUS_OK)
        assert shed == server.stats.shed_overload >= 8
        assert served == 16 - shed > 0
        # Zero misroutes: every served answer is exact.
        for response in responses.values():
            if response.ok:
                assert response.results.tolist() == [expected]
        assert "dispatcher queue full" in next(
            r.text
            for r in responses.values()
            if r.status == protocol.STATUS_OVERLOAD
        )

    def test_key_budget_also_bounds_admission(self):
        async def scenario():
            server = LookupServer(
                TableHandle(Poptrie.from_rib(small_rib())),
                ServerConfig(max_pending_keys=8, max_wait_us=100_000.0),
            )
            host, port = await server.start()
            try:
                responses = await _pipelined_sweep(
                    host, port, [1, 2, 3, 4], 6
                )
            finally:
                await server.stop()
            return responses

        responses = asyncio.run(scenario())
        statuses = [r.status for r in responses.values()]
        assert statuses.count(protocol.STATUS_OVERLOAD) >= 4
        assert statuses.count(protocol.STATUS_OK) >= 1

    def test_expired_deadline_is_shed(self):
        async def scenario():
            server = LookupServer(
                TableHandle(Poptrie.from_rib(small_rib())),
                ServerConfig(max_wait_us=50_000.0),  # 50ms window
            )
            host, port = await server.start()
            try:
                reader, writer = await _client(host, port)
                protocol.write_frame(
                    writer,
                    protocol.encode_request(
                        protocol.OP_LOOKUP4, 1, [1], deadline_us=1_000
                    ),
                )
                await writer.drain()
                payload = await protocol.read_frame(reader)
                shed = protocol.decode_response(payload)
                # A fresh request without a deadline is served normally.
                ok = await _roundtrip(
                    reader, writer, protocol.OP_LOOKUP4, 2, [1]
                )
                writer.close()
            finally:
                await server.stop()
            return server, shed, ok

        server, shed, ok = asyncio.run(scenario())
        assert shed.status == protocol.STATUS_DEADLINE_EXCEEDED
        assert "expired" in shed.text
        assert ok.ok
        assert server.stats.shed_deadline == 1

    def test_v1_client_served_by_v2_server(self):
        """An old client (no deadline field) gets version-1 responses."""

        async def scenario():
            rib = small_rib()
            trie = Poptrie.from_rib(rib)
            server = LookupServer(TableHandle(trie))
            host, port = await server.start()
            key = Prefix.parse("192.0.2.9/32").value
            try:
                reader, writer = await _client(host, port)
                protocol.write_frame(
                    writer,
                    protocol.encode_request(
                        protocol.OP_LOOKUP4, 11, [key], version=1
                    ),
                )
                await writer.drain()
                payload = await protocol.read_frame(reader)
                writer.close()
            finally:
                await server.stop()
            return payload, trie.lookup(key)

        payload, expected = asyncio.run(scenario())
        assert payload[0] == 1  # the response echoes the client's version
        response = protocol.decode_response(payload)
        assert response.ok
        assert response.results.tolist() == [expected]

    def test_shed_counter_reaches_obs(self):
        async def scenario():
            server = LookupServer(
                TableHandle(Poptrie.from_rib(small_rib())),
                ServerConfig(max_pending_requests=1, max_wait_us=100_000.0),
            )
            host, port = await server.start()
            try:
                await _pipelined_sweep(host, port, [1], 4)
            finally:
                await server.stop()

        obs.enable()
        try:
            asyncio.run(scenario())
            counter = obs.registry().counter(
                "repro_server_shed_total", reason="overload"
            )
            assert counter.value >= 2
        finally:
            obs.disable()


# ---------------------------------------------------------------------------
# OP_RELOAD failure: the previous generation keeps serving
# ---------------------------------------------------------------------------


class TestReloadFailure:
    def test_failed_rebuild_keeps_old_generation(self):
        from repro.robust.faults import FaultPlan

        async def scenario(rib):
            server = LookupServer(
                TableHandle(Poptrie.from_rib(rib)),
                rebuild=lambda: Poptrie.from_rib(rib),
            )
            host, port = await server.start()
            key = Prefix.parse("10.1.2.3/32").value
            try:
                reader, writer = await _client(host, port)
                with FaultPlan(build_fail_at=1):
                    failed = await _roundtrip(
                        reader, writer, protocol.OP_RELOAD, 1
                    )
                # Lookups keep succeeding on the old generation...
                lookup = await _roundtrip(
                    reader, writer, protocol.OP_LOOKUP4, 2, [key]
                )
                # ...and a later reload (fault disarmed) succeeds.
                reloaded = await _roundtrip(
                    reader, writer, protocol.OP_RELOAD, 3
                )
                writer.close()
            finally:
                await server.stop()
            return server, failed, lookup, reloaded

        rib = small_rib()
        server, failed, lookup, reloaded = asyncio.run(scenario(rib))
        assert failed.status == protocol.STATUS_SERVER_ERROR
        assert "reload failed" in failed.text
        assert failed.generation == 0  # unchanged
        assert server.stats.reload_failures == 1
        assert lookup.ok and lookup.generation == 0
        assert reloaded.ok and reloaded.generation == 1
        assert server.stats.reloads == 1


class TestReloadWaitsForUpdates:
    def test_reload_does_not_compile_a_message_in_flight(self):
        """OP_RELOAD compiles the RIB the update engine writes, so it
        waits for an OP_UPDATE in flight (staged, journaling, publishing)
        to finish before it reads the RIB."""
        from repro.data.updates import Update

        entered, release = threading.Event(), threading.Event()
        events = []

        def apply_updates(updates):
            entered.set()
            release.wait(10)
            events.append("update done")
            return {"applied": len(updates), "rejected": 0}

        def rebuild():
            events.append("reload compiled")
            return Poptrie.from_rib(small_rib())

        async def scenario():
            server = LookupServer(
                TableHandle(Poptrie.from_rib(small_rib())),
                rebuild=rebuild, apply_updates=apply_updates,
            )
            host, port = await server.start()
            try:
                update_conn = await _client(host, port)
                protocol.write_frame(update_conn[1], protocol.encode_request(
                    protocol.OP_UPDATE, 1,
                    updates=[Update("A", Prefix.parse("203.0.113.0/24"), 4)],
                ))
                await update_conn[1].drain()
                await asyncio.to_thread(entered.wait, 10)
                reload_conn = await _client(host, port)
                reload = asyncio.ensure_future(
                    _roundtrip(*reload_conn, protocol.OP_RELOAD, 2)
                )
                await asyncio.sleep(0.2)
                compiled_early = list(events)
                release.set()
                updated = protocol.decode_response(
                    await protocol.read_frame(update_conn[0])
                )
                reloaded = await reload
                for _, writer in (update_conn, reload_conn):
                    writer.close()
            finally:
                release.set()
                await server.stop()
            return compiled_early, updated, reloaded

        compiled_early, updated, reloaded = asyncio.run(scenario())
        assert compiled_early == []
        assert updated.ok and reloaded.ok
        assert events == ["update done", "reload compiled"]


# ---------------------------------------------------------------------------
# network-level response faults (chaos building blocks)
# ---------------------------------------------------------------------------


class TestConnectionFaults:
    def test_dropped_response_closes_cleanly(self):
        from repro.robust.faults import FaultPlan

        async def scenario():
            server = LookupServer(TableHandle(Poptrie.from_rib(small_rib())))
            host, port = await server.start()
            try:
                with FaultPlan(drop_response_at=1) as plan:
                    reader, writer = await _client(host, port)
                    protocol.write_frame(
                        writer,
                        protocol.encode_request(protocol.OP_LOOKUP4, 1, [1]),
                    )
                    await writer.drain()
                    payload = await protocol.read_frame(reader)
                    writer.close()
            finally:
                await server.stop()
            return server, plan, payload

        server, plan, payload = asyncio.run(scenario())
        assert payload is None  # connection closed before any byte
        assert plan.fired == [("conn-drop", 1)]
        assert server.stats.dropped_responses == 1

    def test_torn_response_breaks_mid_frame(self):
        from repro.robust.faults import FaultPlan

        async def scenario():
            server = LookupServer(TableHandle(Poptrie.from_rib(small_rib())))
            host, port = await server.start()
            try:
                with FaultPlan(torn_response_at=1, torn_response_bytes=6):
                    reader, writer = await _client(host, port)
                    protocol.write_frame(
                        writer,
                        protocol.encode_request(protocol.OP_LOOKUP4, 1, [1]),
                    )
                    await writer.drain()
                    with pytest.raises(ProtocolError):
                        await protocol.read_frame(reader)
                    writer.close()
            finally:
                await server.stop()
            return server

        server = asyncio.run(scenario())
        assert server.stats.torn_responses == 1

    def test_loadgen_retries_through_dropped_responses(self):
        from repro.robust.faults import FaultPlan

        async def scenario():
            rib = small_rib()
            trie = Poptrie.from_rib(rib)
            server = LookupServer(TableHandle(trie))
            host, port = await server.start()
            generator = LoadGenerator(
                host,
                port,
                LoadGenConfig(
                    connections=1, rate=200.0, duration=0.3, batch=4,
                    schedule="uniform", max_retries=3, request_timeout=2.0,
                    backoff_base=0.005, retry_budget=1.0,
                ),
                keys=[Prefix.parse("10.1.2.3/32").value],
                oracle=trie.lookup,
            )
            try:
                with FaultPlan(drop_response_at=3):
                    report = await generator.run()
            finally:
                await server.stop()
            return report

        report = asyncio.run(scenario())
        assert report.sent > 5
        assert report.retries >= 1
        assert report.reconnects >= 1
        assert report.mismatched == 0
        # The dropped response was recovered by a retry: no failed requests.
        assert report.transport_errors == 0
        assert report.completed == report.sent
