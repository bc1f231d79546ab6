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

from repro.data.updates import Update, generate_update_stream
from repro.errors import JournalCorrupt, ReproError
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.parallel.image import structure_to_bytes
from repro.robust.faults import FaultPlan
from repro.robust.journal import Journal, JournalTailer, read_segment, recover
from repro.robust.txn import StreamReport, TransactionalPoptrie
from repro.server import TableHandle, UpdatePipeline, protocol
from repro.server.loadgen import _Connection

from tests.conftest import make_random_rib

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def base_rib() -> Rib:
    return make_random_rib(300, seed=16, lengths=range(8, 29))


def route_set(rib: Rib):
    return {(p.value, p.length, hop) for p, hop in rib.routes()}


def fingerprint(txn: TransactionalPoptrie):
    """Everything a refused message must leave untouched."""
    trie = txn.trie
    return (
        structure_to_bytes(trie),
        trie.inode_count,
        trie.leaf_count,
        txn.generation,
        route_set(txn.rib),
    )


def journal_records(directory: str):
    return [
        (u.kind, u.prefix, u.nexthop if u.kind == "A" else 0)
        for name in sorted(os.listdir(directory))
        if name.startswith("wal-")
        for u in read_segment(os.path.join(directory, name)).updates
    ]


def make_pipeline(directory: str):
    """A checkpointed journal and the pipeline that owns it."""
    rib = base_rib()
    journal = Journal(directory)
    journal.checkpoint(rib)
    txn = TransactionalPoptrie(rib=rib, fallback_rebuild=False)
    return UpdatePipeline(txn, journal, TableHandle(txn.trie)), txn, journal


def positions(report: StreamReport):
    return [position for position, _ in report.errors]


class TestOrderedValidation:
    def test_message_matches_one_at_a_time_replay(self, tmp_path):
        p = Prefix.parse("198.51.100.0/24")
        q = Prefix.parse("203.0.113.0/24")
        absent = Prefix.parse("192.0.2.128/25")
        message = [
            Update("A", p, 7),
            Update("W", p),
            Update("W", p),       # already withdrawn earlier in the message
            Update("W", absent),  # never in the RIB
            Update("A", q, 1 << 16),  # next hop beyond the leaf encoding
            Update("A", q, 3),
        ]
        for prefix in (p, q, absent):
            assert base_rib().get(prefix) == 0

        # The reference: each update on its own through the engine, and
        # journaled only once the engine took it.
        reference_dir = str(tmp_path / "reference")
        reference_journal = Journal(reference_dir)
        reference = TransactionalPoptrie(rib=base_rib())
        expected = StreamReport()
        for position, update in enumerate(message, 1):
            try:
                if update.kind == "A":
                    reference.announce(update.prefix, update.nexthop)
                else:
                    reference.withdraw(update.prefix)
            except ReproError as error:
                expected.rejected += 1
                expected.errors.append((position, str(error)))
            else:
                expected.applied += 1
                reference_journal.append([update])
        reference_journal.close()

        pipeline_dir = str(tmp_path / "pipeline")
        pipeline, txn, journal = make_pipeline(pipeline_dir)
        fsyncs = journal.stats.fsyncs
        report = pipeline.apply(message)
        journal.close()

        assert (report.applied, report.rejected) == (3, 3)
        assert (report.applied, report.rejected) == (
            expected.applied, expected.rejected
        )
        assert positions(report) == positions(expected) == [3, 4, 5]
        assert journal_records(pipeline_dir) == journal_records(reference_dir)
        assert len(journal_records(pipeline_dir)) == 3
        assert journal.stats.fsyncs == fsyncs + 1
        assert route_set(txn.rib) == route_set(reference.rib)
        assert txn.txn_stats.rejected == reference.txn_stats.rejected == 3


class TestGroupCommitFaults:
    @pytest.mark.parametrize(
        "plan", [{"journal_fail_at": 5}, {"fsync_fail_at": 1}],
        ids=["write-fails", "fsync-fails"],
    )
    def test_failed_write_or_fsync_refuses_the_whole_message(
        self, tmp_path, plan
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
        assert txn.txn_stats.journal_failures == 32
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
        self, tmp_path, monkeypatch, failing
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
        assert txn.txn_stats.journal_failures == 32
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


def _serve(journal_dir: str):
    env = dict(os.environ)
    src = os.path.join(REPO_DIR, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--journal", journal_dir,
         "--host", "127.0.0.1", "--port", "0"],
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
