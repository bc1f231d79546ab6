"""The update pipeline: ordered validation, group commit, refusal.

:class:`~repro.server.pipeline.UpdatePipeline` is the one OP_UPDATE write
path of ``serve --journal``, a cluster primary and the churn harness.
These tests pin its contract: a message validates in order against the
RIB plus its own earlier updates, exactly as one-at-a-time replay would;
its accepted records cost one fsync; a failed write or fsync refuses the
whole message and leaves journal, RIB and table untouched; a crash
mid-message loses no acknowledged update.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.data import tableio
from repro.data.updates import Update, fold_updates, generate_update_stream
from repro.errors import JournalCorrupt
from repro.lookup import registry
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.parallel.image import structure_to_bytes
from repro.robust.faults import FaultPlan
from repro.robust.journal import Journal, JournalTailer, read_segment, recover
from repro.robust.txn import StreamReport, TransactionalPoptrie
from repro.server import TableHandle, UpdatePipeline, protocol
from repro.server.loadgen import _Connection

from tests.conftest import allocator_state, make_random_rib

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def base_rib() -> Rib:
    return make_random_rib(300, seed=16, lengths=range(8, 29))


def route_set(rib: Rib):
    return {(p.value, p.length, hop) for p, hop in rib.routes()}


def fingerprint(engine):
    """Everything a refused message must leave untouched: the table, a
    Poptrie's counters and the complete state of its buddy allocators
    (every staged block returned), and the RIB."""
    return (
        structure_to_bytes(engine),
        getattr(engine, "inode_count", None),
        getattr(engine, "leaf_count", None),
        getattr(engine, "generation", None),
        [allocator_state(getattr(engine, name))
         for name in ("node_alloc", "leaf_alloc") if hasattr(engine, name)],
        route_set(engine.rib),
    )


def journal_records(directory: str):
    return [
        (u.kind, u.prefix, u.nexthop if u.kind == "A" else 0)
        for name in sorted(os.listdir(directory))
        if name.startswith("wal-")
        for u in read_segment(os.path.join(directory, name)).updates
    ]


def make_engine(name: str, rib: Rib):
    """The registry entry ``name`` built from ``rib``."""
    return registry.get(name).from_rib(rib)


def make_pipeline(directory: str, name: str = "Poptrie18"):
    """A checkpointed journal and the pipeline that owns it."""
    rib = base_rib()
    journal = Journal(directory)
    journal.checkpoint(rib)
    engine = make_engine(name, rib)
    return UpdatePipeline(engine, journal, TableHandle(engine)), engine, journal


@pytest.fixture
def outcomes():
    """Observability on, in a fresh registry, for one test: returns the
    ``repro_txn_outcomes_total`` count of an outcome."""
    from repro import obs
    from repro.obs import MetricsRegistry

    live = obs.enable(MetricsRegistry())
    yield lambda outcome: live.counter(
        "repro_txn_outcomes_total", outcome=outcome
    ).value
    obs.disable()


def positions(report: StreamReport):
    return [position for position, _ in report.errors]


ENGINES = registry.available()


class TestOrderedValidation:
    @pytest.mark.parametrize("name", ENGINES)
    def test_message_matches_one_at_a_time_replay(
        self, tmp_path, name, outcomes
    ):
        p = Prefix.parse("198.51.100.0/24")
        q = Prefix.parse("203.0.113.0/24")
        absent = Prefix.parse("192.0.2.128/25")
        message = [
            Update("A", p, 7),
            Update("W", p),
            Update("W", p),       # already withdrawn earlier in the message
            Update("W", absent),  # never in the RIB
            Update("A", q, 1 << 16),  # beyond every 16-bit next-hop field
            Update("A", q, 3),
        ]
        for prefix in (p, q, absent):
            assert base_rib().get(prefix) == 0

        # The reference: each update on its own through the engine, and
        # journaled only once the engine took it.
        reference_dir = str(tmp_path / "reference")
        reference_journal = Journal(reference_dir)
        reference = make_engine(name, base_rib())
        expected = StreamReport()
        for position, update in enumerate(message, 1):
            counts = reference.apply_updates([update])
            if counts["rejected"]:
                expected.errors += [
                    (position, text) for _, text in counts["errors"]
                ]
                expected.rejected += 1
                continue
            expected.applied += 1
            reference_journal.append([update])
        reference_journal.close()

        pipeline_dir = str(tmp_path / "pipeline")
        pipeline, engine, journal = make_pipeline(pipeline_dir, name)
        fsyncs = journal.stats.fsyncs
        report = pipeline.apply(message)
        journal.close()

        refused = [3, 4, 5] if engine.fib_limit < 1 << 16 else [3, 4]
        assert report.rejected == len(refused) == 6 - report.applied
        assert (report.applied, report.rejected) == (
            expected.applied, expected.rejected
        )
        assert report.errors == expected.errors
        assert positions(report) == refused
        assert journal_records(pipeline_dir) == journal_records(reference_dir)
        assert len(journal_records(pipeline_dir)) == report.applied
        assert journal.stats.fsyncs == fsyncs + 1
        assert route_set(engine.rib) == route_set(reference.rib)
        assert outcomes("rejected") == len(refused)

    @pytest.mark.parametrize("name", registry.available())
    def test_unencodable_next_hop_is_refused_before_the_journal(
        self, tmp_path, name
    ):
        """A next hop one past the engine's ``fib_limit`` is refused
        before the group commit: no record, no exception, and the next
        valid message applies."""
        directory = str(tmp_path)
        pipeline, structure, journal = make_pipeline(directory, name)
        p = Prefix.parse("198.51.100.0/24")
        seqno, records = journal.last_seqno, journal_records(directory)
        report = pipeline.apply([Update("A", p, structure.fib_limit + 1)])
        assert (report.applied, report.rejected) == (0, 1)
        assert "outside 1.." in report.errors[0][1]
        assert journal.last_seqno == report.seqno == seqno
        assert journal_records(directory) == records

        report = pipeline.apply([Update("A", p, 3)])
        assert (report.applied, report.rejected) == (1, 0)
        assert journal.last_seqno == seqno + 1
        assert structure.lookup(p.value) == 3
        journal.close()

    @pytest.mark.parametrize("name", ["Poptrie18", "SAIL"])
    def test_fault_point_fires_once_per_update(self, tmp_path, name):
        """The ``update`` fault point fires once per update of a message
        (at the pipeline, never again inside the engine), so exactly the
        updates that were journaled are applied, and recovery rebuilds
        the live RIB."""
        directory = str(tmp_path)
        pipeline, engine, journal = make_pipeline(directory, name)
        message = generate_update_stream(base_rib(), 16, seed=8)
        seqno = journal.last_seqno
        with FaultPlan(corrupt_update_every=5, seed=1) as plan:
            report = pipeline.apply(message)
        assert plan.counters["update"] == len(message)
        assert positions(report) == [5, 10, 15]
        assert (report.applied, report.rejected) == (13, 3)
        assert journal.last_seqno == seqno + report.applied
        journal.close()
        assert route_set(recover(directory).rib) == route_set(engine.rib)


class TestGroupCommitFaults:
    @pytest.mark.parametrize(
        "plan", [{"journal_fail_at": 5}, {"fsync_fail_at": 1}],
        ids=["write-fails", "fsync-fails"],
    )
    def test_failed_write_or_fsync_refuses_the_whole_message(
        self, tmp_path, plan, outcomes
    ):
        directory = str(tmp_path)
        pipeline, txn, journal = make_pipeline(directory)
        message = generate_update_stream(txn.rib, 32, seed=3)
        before = fingerprint(txn)
        seqno = journal.last_seqno
        with FaultPlan(**plan) as armed:
            report = pipeline.apply(message)
        assert armed.fired
        assert (report.applied, report.rejected) == (0, 32)
        assert positions(report) == list(range(1, 33))
        assert all("InjectedFault" in text for _, text in report.errors)
        assert outcomes("journal_error") == 32
        assert fingerprint(txn) == before
        assert journal.last_seqno == report.seqno == seqno

        # The next message applies normally, and the refused records
        # never reach recovery.
        report = pipeline.apply(message)
        assert (report.applied, report.rejected) == (32, 0)
        assert report.seqno == seqno + 32
        journal.close()
        result = recover(directory)
        assert result.replayed == 32
        assert route_set(result.rib) == route_set(txn.rib)

    def test_journal_refusals_are_counted_as_txn_outcomes(self, tmp_path):
        from repro import obs

        pipeline, txn, journal = make_pipeline(str(tmp_path))
        message = generate_update_stream(txn.rib, 8, seed=7)
        obs.enable()
        try:
            with FaultPlan(fsync_fail_at=1):
                report = pipeline.apply(message)
            counter = obs.registry().counter(
                "repro_txn_outcomes_total", outcome="journal_error"
            )
            assert report.rejected == counter.value == 8
        finally:
            obs.disable()
            journal.close()

    def test_torn_write_mid_message_loses_no_acknowledged_update(
        self, tmp_path
    ):
        directory = str(tmp_path)
        pipeline, txn, journal = make_pipeline(directory)
        stream = generate_update_stream(txn.rib, 64, seed=4)
        acked = pipeline.apply(stream[:32])
        assert acked.applied == 32
        acked_routes = route_set(txn.rib)

        with FaultPlan(torn_journal_at=16) as armed:
            report = pipeline.apply(stream[32:])
        assert armed.fired == [("torn-journal", 16)]
        assert (report.applied, report.rejected) == (0, 32)
        assert route_set(txn.rib) == acked_routes

        # Like the dead process, the crashed journal takes nothing more.
        report = pipeline.apply(stream[32:33])
        assert report.rejected == 1
        assert "JournalCorrupt" in report.errors[0][1]
        with pytest.raises(JournalCorrupt):
            journal.append(stream[32:33])
        journal.close()

        # The torn write models a crash: recover what it left on disk.
        result = recover(directory)
        assert result.torn_bytes > 0
        assert result.last_seqno == acked.seqno + 15
        oracle = TransactionalPoptrie(rib=base_rib())
        oracle.apply_stream(stream[:47], on_error="raise")
        assert route_set(result.rib) == route_set(oracle.rib)

    @pytest.mark.parametrize("failing", ["write", "fsync"])
    def test_os_error_cuts_the_message_back_out(
        self, tmp_path, monkeypatch, failing, outcomes
    ):
        """A real write error (half the message reaches the file, then
        ENOSPC) or a failed fsync: the segment is cut back, no counter
        moves, and recovery never replays a refused record."""
        directory = str(tmp_path)
        pipeline, txn, journal = make_pipeline(directory)
        stream = generate_update_stream(txn.rib, 64, seed=5)
        acked = pipeline.apply(stream[:32])
        before = fingerprint(txn)
        state = (journal.last_seqno, journal.stats.appends,
                 journal.stats.bytes_written, journal.stats.fsyncs)
        segment = journal._segment_path

        real_write, real_fsync = os.write, os.fsync
        fd = journal._stream.fileno()
        tries = []

        def half_then_enospc(target, data):
            if target != fd or tries:
                return real_write(target, data)
            tries.append(target)
            real_write(target, bytes(data[: len(data) // 2]))
            raise OSError(errno.ENOSPC, "No space left on device")

        def fsync_eio(target):
            if target != fd or tries:
                return real_fsync(target)
            tries.append(target)
            raise OSError(errno.EIO, "Input/output error")

        with monkeypatch.context() as patch:
            if failing == "write":
                patch.setattr(os, "write", half_then_enospc)
            else:
                patch.setattr(os, "fsync", fsync_eio)
            report = pipeline.apply(stream[32:])
        assert tries
        assert (report.applied, report.rejected) == (0, 32)
        assert all("OSError" in text for _, text in report.errors)
        assert outcomes("journal_error") == 32
        assert fingerprint(txn) == before
        assert (journal.last_seqno, journal.stats.appends,
                journal.stats.bytes_written, journal.stats.fsyncs) == state
        assert os.path.getsize(segment) == journal._stream_bytes
        assert not journal.crashed

        # The retried message applies normally; recovery replays the
        # acked message and it, and nothing refused.
        report = pipeline.apply(stream[32:])
        assert (report.applied, report.rejected) == (32, 0)
        journal.close()
        result = recover(directory)
        assert result.replayed == 32 + 32
        assert result.last_seqno == acked.seqno + 32
        assert route_set(result.rib) == route_set(txn.rib)

    def test_tailer_never_reads_a_message_before_its_fsync(
        self, tmp_path, monkeypatch
    ):
        """A replication tailer polling while a message waits on its
        fsync blocks until the fsync has failed and the message is cut
        back out: no replica ever ships a refused record."""
        directory = str(tmp_path)
        pipeline, txn, journal = make_pipeline(directory)
        stream = generate_update_stream(txn.rib, 64, seed=6)
        acked = pipeline.apply(stream[:32])
        tailer = JournalTailer(directory, after_seqno=journal.checkpoint_seqno)
        polled = []
        reader = threading.Thread(target=lambda: polled.extend(tailer.poll()))
        real_fsync = os.fsync
        fd = journal._stream.fileno()
        blocked = []

        def fsync_eio(target):
            if target != fd or blocked:
                return real_fsync(target)
            reader.start()
            reader.join(timeout=0.2)
            blocked.append(reader.is_alive())
            raise OSError(errno.EIO, "Input/output error")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", fsync_eio)
            report = pipeline.apply(stream[32:])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert blocked == [True]
        assert report.rejected == 32
        assert [seqno for seqno, _ in polled] == list(
            range(journal.checkpoint_seqno + 1, acked.seqno + 1)
        )
        journal.close()


class TestStageJournalPublish:
    """Every engine stages a message before the journal sees it and
    publishes it after: a record is durable only if the table holds
    it, and the table shows nothing the journal does not hold."""

    def test_wide_next_hop_survives_recovery(self, tmp_path):
        """A journal written through an engine with 32-bit next hops
        recovers every record: recovery checks the record format's
        limit, not a 16-bit engine's."""
        directory = str(tmp_path)
        pipeline, engine, journal = make_pipeline(directory, "Radix")
        q = Prefix.parse("203.0.113.0/24")
        report = pipeline.apply([Update("A", q, 1 << 16)])
        assert (report.applied, report.rejected) == (1, 0)
        journal.close()
        result = recover(directory)
        assert result.skipped == 0 and result.errors == []
        assert result.rib.get(q) == 1 << 16
        assert route_set(result.rib) == route_set(engine.rib)

    def test_message_refused_by_its_rebuild_leaves_no_record(self, tmp_path):
        """A rebuild that hits a structural limit refuses the message
        before the group commit: no record, so recovery never holds the
        route the live table refused."""
        from repro.errors import StructuralLimitError

        directory = str(tmp_path)
        pipeline, engine, journal = make_pipeline(directory, "SAIL")

        def too_many_chunks(rib):
            raise StructuralLimitError("more than 2^15 second-level chunks")

        engine.bind_rib(engine.rib, rebuild=too_many_chunks)
        q = Prefix.parse("203.0.113.0/24")
        before, seqno = fingerprint(engine), journal.last_seqno
        report = pipeline.apply([Update("A", q, 5)])
        assert (report.applied, report.rejected) == (0, 1)
        assert report.errors[0][0] == 1
        assert "StructuralLimitError" in report.errors[0][1]
        assert journal.last_seqno == report.seqno == seqno
        assert fingerprint(engine) == before
        journal.close()
        assert recover(directory).rib.get(q) == 0

    def test_message_refused_by_its_stage_and_rebuild_leaves_no_record(
        self, tmp_path
    ):
        """A Poptrie message whose stage and fallback rebuild both fail
        is refused before the group commit: no record, so recovery never
        holds the route the live table refused."""
        directory = str(tmp_path)
        pipeline, engine, journal = make_pipeline(directory, "Poptrie18")
        q = Prefix.parse("203.0.113.0/24")
        before, seqno = fingerprint(engine), journal.last_seqno
        with FaultPlan(build_fail_every=1) as armed:
            report = pipeline.apply([Update("A", q, 7)])
        assert len(armed.fired) == 2  # the stage, then the rebuild
        assert (report.applied, report.rejected) == (0, 1)
        assert "InjectedFault" in report.errors[0][1]
        assert journal.last_seqno == report.seqno == seqno
        assert fingerprint(engine) == before
        journal.close()
        assert recover(directory).rib.get(q) == 0

    @pytest.mark.parametrize("name", ["SAIL", "Poptrie18"])
    def test_failed_group_commit_abandons_the_stage(self, tmp_path, name):
        """Every engine stages the message before the journal write (the
        rebuild engine compiles the new table, Poptrie stages patches
        into fresh buddy blocks); when the write fails, abandon undoes
        the stage's RIB changes, returns every staged block, and the
        table stays the one readers had."""
        directory = str(tmp_path)
        pipeline, engine, journal = make_pipeline(directory, name)
        entry, builds = registry.get(name), []

        def counted_rebuild(rib):
            builds.append(len(rib))
            return entry.from_rib(rib)

        engine.bind_rib(engine.rib, rebuild=counted_rebuild)
        message = generate_update_stream(engine.rib, 16, seed=11)
        before, seqno = fingerprint(engine), journal.last_seqno
        append, at_journal = journal.append, []

        def spy(updates):
            at_journal.append(fingerprint(engine))
            return append(updates)

        journal.append = spy
        with FaultPlan(journal_fail_at=1) as armed:
            report = pipeline.apply(message)
        assert armed.fired and len(builds) == (name == "SAIL")
        (staged,) = at_journal
        assert staged[0] == before[0]  # readers still had the old table
        assert staged[-1] != before[-1]  # the message was folded
        assert staged[-2] != before[-2] or name == "SAIL"  # blocks staged
        assert (report.applied, report.rejected) == (0, 16)
        assert fingerprint(engine) == before
        assert journal.last_seqno == report.seqno == seqno

        report = pipeline.apply(message)
        assert (report.applied, report.rejected) == (16, 0)
        journal.close()
        assert route_set(recover(directory).rib) == route_set(engine.rib)

    @pytest.mark.parametrize("name", ENGINES)
    @pytest.mark.parametrize("fail", [False, True])
    def test_readers_see_no_route_before_its_record(
        self, tmp_path, name, fail
    ):
        """While the group commit runs, lookups still answer from the
        old table (Radix walks the RIB itself, so its stage must leave
        the RIB alone); the route shows only once its record is durable."""
        pipeline, engine, journal = make_pipeline(str(tmp_path), name)
        q = Prefix.parse("203.0.113.0/24")
        key = q.value + 1
        old = engine.lookup(key)
        hop = 9 if old != 9 else 10
        append, seen = journal.append, []

        def spy(updates):
            seen.append(engine.lookup(key))
            return append(updates)

        journal.append = spy
        with FaultPlan(journal_fail_at=1 if fail else None):
            report = pipeline.apply([Update("A", q, hop)])
        assert seen == [old]
        assert report.applied == (0 if fail else 1)
        assert engine.lookup(key) == (old if fail else hop)


def _serve(journal_dir: str, *options: str):
    env = dict(os.environ)
    src = os.path.join(REPO_DIR, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--journal", journal_dir,
         *options, "--host", "127.0.0.1", "--port", "0"],
        cwd=REPO_DIR, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


async def _request(port, opcode, updates=()):
    conn = _Connection()
    conn.host, conn.port = "127.0.0.1", port
    await conn.ensure_open()
    try:
        return await conn.request(opcode, (), updates=updates, timeout=30.0)
    finally:
        await conn.close()


class TestServeGroupCommit:
    def test_one_fsync_per_message(self, tmp_path):
        """One 32-update OP_UPDATE message costs ``serve --journal``
        exactly one fsync, and the ack times it as its own stage."""
        journal_dir = str(tmp_path / "wal")
        with Journal(journal_dir) as journal:
            journal.checkpoint(base_rib())
        message = generate_update_stream(base_rib(), 32, seed=5)
        proc = _serve(journal_dir)
        try:
            port = None
            for line in proc.stdout:
                if line.startswith("serving"):
                    port = int(line.rsplit(":", 1)[1])
                    break
            assert port, proc.stderr.read()

            async def scenario():
                before = await _request(port, protocol.OP_STATS)
                ack = await _request(port, protocol.OP_UPDATE, message)
                after = await _request(port, protocol.OP_STATS)
                return (json.loads(before.text), ack, json.loads(after.text))

            before, ack, after = asyncio.run(scenario())
        finally:
            proc.terminate()
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()
        assert ack.status == protocol.STATUS_OK
        report = json.loads(ack.text)
        assert report["applied"] == 32
        assert set(report["stages_us"]) == {"journal", "fsync", "apply", "publish"}
        assert report["stages_us"]["fsync"] > 0
        assert after["journal"]["fsyncs"] - before["journal"]["fsyncs"] == 1
        assert after["journal"]["appends"] - before["journal"]["appends"] == 32


class TestServeCrashAcrossEngines:
    @pytest.mark.parametrize("name", ["SAIL", "Poptrie18"])
    def test_sigkill_mid_stream_loses_no_acknowledged_update(
        self, tmp_path, name
    ):
        """SIGKILL ``serve --journal --algorithm NAME`` while OP_UPDATE
        messages stream in.  The recovered RIB holds every acknowledged
        message, and compiled with the same entry it equals the oracle
        (the table plus the durable prefix of the stream) fingerprint
        for fingerprint."""
        table = str(tmp_path / "rib.txt")
        tableio.save_table(base_rib(), table)
        journal_dir = str(tmp_path / "wal")
        stream = generate_update_stream(base_rib(), 256, seed=12)
        messages = [stream[i:i + 8] for i in range(0, len(stream), 8)]
        proc = _serve(journal_dir, "--table", table, "--algorithm", name)
        acked = 0
        try:
            for line in proc.stdout:
                if line.startswith("serving"):
                    break
            assert line.startswith(f"serving {name} "), proc.stderr.read()
            port = int(line.rsplit(":", 1)[1])

            async def stream_until_killed():
                nonlocal acked
                loop = asyncio.get_running_loop()
                for number, message in enumerate(messages):
                    if number == 6:
                        loop.call_later(0.005, proc.kill)
                    try:
                        ack = await _request(port, protocol.OP_UPDATE, message)
                    except (OSError, EOFError, asyncio.TimeoutError):
                        return
                    assert ack.status == protocol.STATUS_OK
                    assert json.loads(ack.text)["applied"] == len(message)
                    acked += len(message)

            asyncio.run(stream_until_killed())
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()
        assert proc.returncode == -9
        assert 6 * 8 <= acked < len(stream)

        result = recover(journal_dir)
        assert acked <= result.last_seqno == result.replayed
        oracle = base_rib()
        fold_updates(oracle, stream[:result.last_seqno])
        assert route_set(result.rib) == route_set(oracle)
        entry = registry.get(name)
        assert structure_to_bytes(entry.from_rib(result.rib)) == (
            structure_to_bytes(entry.from_rib(oracle))
        )
