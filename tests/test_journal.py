"""The route-update journal: durability, torn tails, corruption, recovery.

Covers the write path (framing, group commit, segment rotation,
checkpoint truncation), the recovery path (empty directory, checkpoint
only, torn final record, replay idempotence), the corruption taxonomy
(a CRC-damaged record mid-segment is :class:`JournalCorrupt`, a torn
*tail* is not), and the journal-then-publish contract of the
:class:`~repro.server.pipeline.UpdatePipeline` that owns the journal.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro import obs
from repro.core.poptrie import Poptrie
from repro.data import tableio
from repro.data.updates import Update, generate_update_stream
from repro.errors import InjectedFault, JournalCorrupt, JournalGap
from repro.lookup import registry
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.obs import MetricsRegistry
from repro.robust.faults import FaultPlan
from repro.robust.journal import (
    Journal,
    JournalTailer,
    decode_update,
    encode_update,
    read_segment,
    recover,
)
from repro.server import TableHandle, UpdatePipeline


def small_rib() -> Rib:
    rib = Rib()
    rib.insert(Prefix.parse("0.0.0.0/0"), 9)
    rib.insert(Prefix.parse("10.0.0.0/8"), 1)
    rib.insert(Prefix.parse("192.0.2.0/24"), 3)
    return rib


def some_updates(n: int = 20, seed: int = 5):
    return list(generate_update_stream(small_rib(), count=n, seed=seed))


def segment_paths(directory: str):
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.startswith("wal-")
    )


def route_set(rib: Rib):
    return {(p.value, p.length, p.width, hop) for p, hop in rib.routes()}


def pipeline_for(journal: Journal, rib: Rib) -> UpdatePipeline:
    """The one journal writer, over a fresh engine on ``rib``."""
    engine = registry.get("Poptrie18").from_rib(rib)
    return UpdatePipeline(engine, journal, TableHandle(engine))


# ---------------------------------------------------------------------------
# record encoding
# ---------------------------------------------------------------------------


class TestRecordCodec:
    def test_roundtrip_v4_and_v6(self):
        for update in (
            Update("A", Prefix.parse("10.0.0.0/8"), 42),
            Update("W", Prefix.parse("10.0.0.0/8")),
            Update("A", Prefix.parse("2001:db8::/32"), 7),
        ):
            decoded = decode_update(encode_update(update))
            assert decoded.kind == update.kind
            assert decoded.prefix == update.prefix
            if update.kind == "A":
                assert decoded.nexthop == update.nexthop

    def test_withdraw_nexthop_normalised_to_zero(self):
        update = Update("W", Prefix.parse("10.0.0.0/8"), 999)
        assert decode_update(encode_update(update)).nexthop == 0

    def test_bad_payloads_are_corrupt(self):
        good = encode_update(Update("A", Prefix.parse("10.0.0.0/8"), 1))
        with pytest.raises(JournalCorrupt):
            decode_update(good[:-1])  # wrong size
        with pytest.raises(JournalCorrupt):
            decode_update(b"\x07" + good[1:])  # unknown kind code
        with pytest.raises(JournalCorrupt):
            decode_update(b"\x00\x21" + good[2:])  # width 33

    def test_unjournalable_updates_rejected(self):
        with pytest.raises(ValueError):
            encode_update(Update("?", Prefix.parse("10.0.0.0/8"), 1))
        with pytest.raises(ValueError):
            encode_update(Update("A", Prefix.parse("10.0.0.0/8"), 1 << 40))


# ---------------------------------------------------------------------------
# the write path
# ---------------------------------------------------------------------------


class TestJournalWrites:
    def test_appends_are_sequenced_and_survive_reopen(self, tmp_path):
        d = str(tmp_path)
        with Journal(d) as journal:
            seqnos = [journal.append([u]) for u in some_updates(5)]
        assert seqnos == [1, 2, 3, 4, 5]
        reopened = Journal(d)
        assert reopened.last_seqno == 5
        assert reopened.append(some_updates(1)) == 6
        reopened.close()

    def test_segment_rotation(self, tmp_path):
        d = str(tmp_path)
        journal = Journal(d, segment_bytes=128)
        for update in some_updates(12):
            journal.append([update])
        journal.close()
        paths = segment_paths(d)
        assert len(paths) > 1
        assert journal.stats.rotations == len(paths) - 1
        # Segments chain: each starts where the previous ended.
        expected_base = 1
        total = 0
        for path in paths:
            info = read_segment(path)
            assert info.base == expected_base
            expected_base = info.next_seqno
            total += info.count
        assert total == 12

    def test_checkpoint_truncates_segments(self, tmp_path):
        d = str(tmp_path)
        journal = Journal(d)
        pipeline = pipeline_for(journal, small_rib())
        txn = pipeline.engine
        for update in some_updates(10):
            pipeline.apply([update])
        assert segment_paths(d)
        path = journal.checkpoint(txn.rib)
        assert os.path.exists(path)
        assert segment_paths(d) == []
        # Recovery from the checkpoint alone reproduces the live state.
        result = recover(d)
        assert result.replayed == 0
        assert route_set(result.rib) == route_set(txn.rib)
        journal.close()

# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


class TestRecovery:
    def test_empty_directory_recovers_empty_table(self, tmp_path):
        result = recover(str(tmp_path))
        assert result.last_seqno == 0
        assert len(result.rib) == 0
        assert result.checkpoint_path is None

    def test_missing_directory_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            recover(str(tmp_path / "nope"))

    def test_checkpoint_only(self, tmp_path):
        d = str(tmp_path)
        rib = small_rib()
        with Journal(d) as journal:
            journal.checkpoint(rib)
        result = recover(d)
        assert result.replayed == 0
        assert result.checkpoint_seqno == 0
        assert route_set(result.rib) == route_set(rib)

    def test_tail_replay_matches_in_process_oracle(self, tmp_path):
        d = str(tmp_path)
        rib = small_rib()
        updates = some_updates(40, seed=9)
        with Journal(d) as journal:
            journal.checkpoint(rib)
            pipeline = pipeline_for(journal, small_rib())
            for update in updates:
                pipeline.apply([update])
            oracle = pipeline.engine
        result = recover(d)
        assert result.replayed + result.skipped == len(updates)
        assert route_set(result.rib) == route_set(oracle.rib)

    def test_replay_is_idempotent(self, tmp_path):
        d = str(tmp_path)
        with Journal(d) as journal:
            for update in some_updates(25, seed=13):
                journal.append([update])
        first = recover(d)
        second = recover(d)
        assert route_set(first.rib) == route_set(second.rib)
        assert first.last_seqno == second.last_seqno == 25

    def test_torn_final_record_discarded(self, tmp_path):
        d = str(tmp_path)
        with Journal(d) as journal:
            for update in some_updates(6):
                journal.append([update])
        path = segment_paths(d)[-1]
        with open(path, "ab") as stream:
            stream.write(b"\x18\x00\x00")  # half a record header
        result = recover(d)
        assert result.torn_bytes == 3
        assert result.last_seqno == 6
        # Reopening for append truncates the torn bytes in place.
        journal = Journal(d)
        assert journal.stats.torn_bytes_discarded == 3
        assert journal.append(some_updates(1)) == 7
        journal.close()
        assert recover(d).last_seqno == 7

    def test_crc_corrupt_mid_segment_raises(self, tmp_path):
        d = str(tmp_path)
        with Journal(d) as journal:
            for update in some_updates(6):
                journal.append([update])
        path = segment_paths(d)[-1]
        # Flip one payload byte of the *second* record: a complete frame
        # with a bad CRC — real corruption, never a torn tail.
        record_bytes = 8 + 24
        offset = 16 + record_bytes + 8 + 2
        with open(path, "rb+") as stream:
            stream.seek(offset)
            byte = stream.read(1)
            stream.seek(offset)
            stream.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(JournalCorrupt, match="CRC mismatch"):
            recover(d)
        with pytest.raises(JournalCorrupt):
            read_segment(path, tail_ok=True)  # tail_ok does not excuse CRCs

    def test_missing_segment_raises(self, tmp_path):
        d = str(tmp_path)
        with Journal(d, segment_bytes=128) as journal:
            for update in some_updates(12):
                journal.append([update])
        paths = segment_paths(d)
        assert len(paths) >= 3
        os.unlink(paths[1])
        with pytest.raises(JournalCorrupt, match="missing segment"):
            recover(d)

    def test_unreadable_checkpoint_falls_back(self, tmp_path):
        d = str(tmp_path)
        rib = small_rib()
        journal = Journal(d)
        first = journal.checkpoint(rib)
        # Fake a newer, damaged checkpoint alongside the good one.
        bogus = os.path.join(d, "checkpoint-00000000000000000009.tbl")
        with open(bogus, "w") as stream:
            stream.write("not a table\n")
        result = recover(d)
        assert result.checkpoints_skipped == 1
        assert result.checkpoint_path == first
        assert route_set(result.rib) == route_set(rib)
        journal.close()


# ---------------------------------------------------------------------------
# journal-then-publish and fault sites
# ---------------------------------------------------------------------------


class TestJournalFaults:
    def test_failed_append_refuses_the_update(self, tmp_path):
        d = str(tmp_path)
        journal = Journal(d)
        pipeline = pipeline_for(journal, small_rib())
        txn = pipeline.engine
        before = route_set(txn.rib)
        live = obs.enable(MetricsRegistry())
        try:
            with FaultPlan(journal_fail_at=1):
                report = pipeline.apply(
                    [Update("A", Prefix.parse("172.16.0.0/12"), 5)]
                )
        finally:
            obs.disable()
        assert (report.applied, report.rejected) == (0, 1)
        assert "InjectedFault" in report.errors[0][1]
        assert route_set(txn.rib) == before
        assert live.counter(
            "repro_txn_outcomes_total", outcome="journal_error"
        ).value == 1
        assert journal.last_seqno == 0
        journal.close()
        assert recover(d).last_seqno == 0

    def test_torn_write_fault_recovers_clean(self, tmp_path):
        d = str(tmp_path)
        journal = Journal(d)
        updates = some_updates(5)
        for update in updates[:3]:
            journal.append([update])
        with FaultPlan(torn_journal_at=1, torn_journal_bytes=7) as plan:
            with pytest.raises(InjectedFault):
                journal.append([updates[3]])
        assert plan.fired == [("torn-journal", 1)]
        # The partial record is on disk; recovery discards exactly it.
        result = recover(d)
        assert result.torn_bytes == 7
        assert result.last_seqno == 3

    def test_fsync_fault_propagates(self, tmp_path):
        """A failed fsync refuses the message, and recovery agrees: the
        record is cut back out, so it is never replayed."""
        d = str(tmp_path)
        journal = Journal(d)
        with FaultPlan(fsync_fail_at=1):
            with pytest.raises(InjectedFault):
                journal.append(some_updates(1))
        assert journal.last_seqno == 0
        journal.close()
        assert recover(d).last_seqno == 0

    def test_checkpoint_fault_keeps_previous_state(self, tmp_path):
        d = str(tmp_path)
        rib = small_rib()
        journal = Journal(d)
        journal.checkpoint(rib)
        for update in some_updates(4):
            journal.append([update])
        expected = route_set(recover(d).rib)
        with FaultPlan(checkpoint_fail_at=1):
            with pytest.raises(InjectedFault):
                journal.checkpoint(recover(d).rib)
        # No temporary litter, old checkpoint + tail intact.
        assert not [n for n in os.listdir(d) if n.endswith(".tmp")]
        assert segment_paths(d)
        assert route_set(recover(d).rib) == expected
        journal.close()


# ---------------------------------------------------------------------------
# serve --journal / recover CLI integration (in-process)
# ---------------------------------------------------------------------------


class TestRecoverCli:
    def test_recover_reports_and_writes_table(self, tmp_path, capsys):
        from repro.cli import main

        d = str(tmp_path / "wal")
        with Journal(d) as journal:
            journal.checkpoint(small_rib())
            for update in some_updates(8):
                journal.append([update])
        out = str(tmp_path / "recovered.txt")
        assert main(["recover", d, "-o", out]) == 0
        text = capsys.readouterr().out
        assert "replayed" in text and "verified" in text
        recovered = tableio.load_table(out)
        assert route_set(recovered) == route_set(recover(d).rib)

    def test_recover_reads_a_wide_engine_journal(self, tmp_path, capsys):
        """A journal written through a 32-bit-next-hop engine (Radix)
        holds hops Poptrie18 cannot encode: recover still reports and
        writes it, and says it skipped the Poptrie18 check."""
        from repro.cli import main

        d = str(tmp_path / "wal")
        journal = Journal(d)
        journal.checkpoint(small_rib())
        engine = registry.get("Radix").from_rib(small_rib())
        pipeline = UpdatePipeline(engine, journal, TableHandle(engine))
        wide = Prefix.parse("203.0.113.0/24")
        assert pipeline.apply([Update("A", wide, 1 << 16)]).applied == 1
        journal.close()
        out = str(tmp_path / "recovered.txt")
        assert main(["recover", d, "-o", out]) == 0
        assert "not verified (next hop 65536 > Poptrie18's 65535)" in (
            capsys.readouterr().out
        )
        assert tableio.load_table(out).get(wide) == 1 << 16

    def test_recover_compact_truncates(self, tmp_path):
        from repro.cli import main

        d = str(tmp_path / "wal")
        with Journal(d) as journal:
            for update in some_updates(8):
                journal.append([update])
        assert main(["recover", d, "--compact"]) == 0
        assert segment_paths(d) == []
        result = recover(d)
        assert result.checkpoint_seqno == 8
        assert result.replayed == 0

    def test_recover_exits_1_on_corruption(self, tmp_path, capsys):
        from repro.cli import main

        d = str(tmp_path / "wal")
        with Journal(d) as journal:
            for update in some_updates(4):
                journal.append([update])
        path = segment_paths(d)[-1]
        with open(path, "rb+") as stream:
            stream.seek(16 + 8 + 4)  # first record's payload
            stream.write(b"\xff\xff")
        assert main(["recover", d]) == 1
        assert "CRC" in capsys.readouterr().err

    def test_obs_counters_flow(self, tmp_path):
        from repro import obs

        obs.enable()
        try:
            d = str(tmp_path / "wal")
            with Journal(d) as journal:
                for update in some_updates(3):
                    journal.append([update])
                journal.checkpoint(recover(d).rib)
            registry = obs.registry()
            label = os.path.basename(os.path.normpath(d))
            assert registry.counter(
                "repro_journal_appends_total", journal=label
            ).value == 3
            assert registry.counter(
                "repro_journal_checkpoints_total", journal=label
            ).value == 1
            assert registry.counter(
                "repro_journal_fsyncs_total", journal=label
            ).value >= 3
            assert registry.gauge(
                "repro_journal_recovery_seconds", journal=label
            ).value > 0
        finally:
            obs.disable()


# ---------------------------------------------------------------------------
# the applied_seqno watermark
# ---------------------------------------------------------------------------


class TestAppliedSeqno:
    def test_tracks_appends_and_survives_reopen(self, tmp_path):
        d = str(tmp_path)
        journal = Journal(d)
        assert journal.applied_seqno == 0
        for update in some_updates(5):
            journal.append([update])
        assert journal.applied_seqno == 5
        assert journal.describe()["applied_seqno"] == 5
        journal.close()
        assert Journal(d).applied_seqno == 5

    def test_recovery_result_exposes_the_watermark(self, tmp_path):
        d = str(tmp_path)
        with Journal(d) as journal:
            journal.checkpoint(small_rib())
            for update in some_updates(7):
                journal.append([update])
        result = recover(d)
        assert result.applied_seqno == result.last_seqno == 7
        assert result.describe()["applied_seqno"] == 7

    def test_install_checkpoint_adopts_external_snapshot(self, tmp_path):
        d = str(tmp_path)
        journal = Journal(d)
        for update in some_updates(5):
            journal.append([update])
        # A replication peer ships a snapshot covering seqno 40: local
        # history is discarded and the sequence resumes from there.
        rib = small_rib()
        path = journal.install_checkpoint(rib, 40)
        assert os.path.exists(path)
        assert segment_paths(d) == []
        assert journal.checkpoint_seqno == 40
        assert journal.applied_seqno == 40
        assert journal.append(some_updates(1)) == 41
        journal.close()
        result = recover(d)
        assert result.checkpoint_seqno == 40
        assert result.applied_seqno == 41

    def test_install_checkpoint_rejects_negative_seqno(self, tmp_path):
        journal = Journal(str(tmp_path))
        with pytest.raises(ValueError):
            journal.install_checkpoint(small_rib(), -1)
        journal.close()


# ---------------------------------------------------------------------------
# tail shipping (JournalTailer)
# ---------------------------------------------------------------------------


class TestJournalTailer:
    def test_poll_delivers_appends_in_order(self, tmp_path):
        d = str(tmp_path)
        journal = Journal(d)
        tailer = JournalTailer(d)
        assert tailer.poll() == []  # nothing written yet
        updates = some_updates(6)
        for update in updates:
            journal.append([update])
        polled = tailer.poll()
        assert [seqno for seqno, _ in polled] == [1, 2, 3, 4, 5, 6]
        assert [u.prefix for _, u in polled] == [u.prefix for u in updates]
        assert tailer.poll() == []
        journal.close()

    def test_limit_paces_delivery(self, tmp_path):
        d = str(tmp_path)
        with Journal(d) as journal:
            for update in some_updates(9):
                journal.append([update])
        tailer = JournalTailer(d)
        assert [s for s, _ in tailer.poll(limit=4)] == [1, 2, 3, 4]
        assert tailer.position == 4
        assert [s for s, _ in tailer.poll(limit=4)] == [5, 6, 7, 8]
        assert [s for s, _ in tailer.poll(limit=4)] == [9]

    def test_follows_segment_rotation_incrementally(self, tmp_path):
        """A poll between every append must cross rotation boundaries
        without skipping or repeating records."""
        d = str(tmp_path)
        journal = Journal(d, segment_bytes=64)  # ~2 records per segment
        tailer = JournalTailer(d)
        seen = []
        for update in some_updates(12):
            journal.append([update])
            seen.extend(seqno for seqno, _ in tailer.poll())
        assert seen == list(range(1, 13))
        assert len(segment_paths(d)) > 1
        journal.close()

    def test_single_poll_spans_many_segments(self, tmp_path):
        d = str(tmp_path)
        with Journal(d, segment_bytes=64) as journal:
            for update in some_updates(12):
                journal.append([update])
        assert len(segment_paths(d)) > 1
        tailer = JournalTailer(d)
        assert [s for s, _ in tailer.poll()] == list(range(1, 13))

    def test_late_tailer_starts_mid_stream(self, tmp_path):
        d = str(tmp_path)
        with Journal(d, segment_bytes=64) as journal:
            for update in some_updates(10):
                journal.append([update])
        tailer = JournalTailer(d, after_seqno=7)
        assert [s for s, _ in tailer.poll()] == [8, 9, 10]

    def test_torn_tail_held_back_until_complete(self, tmp_path):
        d = str(tmp_path)
        journal = Journal(d)
        for update in some_updates(3):
            journal.append([update])
        journal.close()
        path = segment_paths(d)[-1]
        with open(path, "ab") as stream:
            stream.write(b"\x18\x00\x00")  # half a record header
        tailer = JournalTailer(d)
        assert [s for s, _ in tailer.poll()] == [1, 2, 3]
        assert tailer.poll() == []  # the torn record never ships
        # The writer reopens (truncating the torn bytes) and appends:
        # the tailer picks up exactly the new record.
        journal = Journal(d)
        journal.append(some_updates(1))
        assert [s for s, _ in tailer.poll()] == [4]
        journal.close()

    def test_checkpoint_truncation_raises_gap(self, tmp_path):
        d = str(tmp_path)
        journal = Journal(d)
        for update in some_updates(10):
            journal.append([update])
        tailer = JournalTailer(d)
        assert len(tailer.poll(limit=4)) == 4
        journal.checkpoint(recover(d).rib)  # deletes every segment
        with pytest.raises(JournalGap) as excinfo:
            tailer.poll()
        assert excinfo.value.resync_seqno == 10
        journal.close()

    def test_fresh_tailer_behind_checkpoint_raises_gap(self, tmp_path):
        d = str(tmp_path)
        with Journal(d) as journal:
            for update in some_updates(5):
                journal.append([update])
            journal.checkpoint(recover(d).rib)
        with pytest.raises(JournalGap) as excinfo:
            JournalTailer(d).poll()
        assert excinfo.value.resync_seqno == 5

    def test_crc_damage_is_corruption_not_gap(self, tmp_path):
        d = str(tmp_path)
        with Journal(d) as journal:
            for update in some_updates(4):
                journal.append([update])
        path = segment_paths(d)[-1]
        with open(path, "rb+") as stream:
            stream.seek(16 + 8 + 2)  # first record's payload
            stream.write(b"\xff\xff")
        with pytest.raises(JournalCorrupt, match="CRC mismatch"):
            JournalTailer(d).poll()

    def test_rejects_negative_start(self, tmp_path):
        with pytest.raises(ValueError):
            JournalTailer(str(tmp_path), after_seqno=-1)


def test_recovered_table_compiles_identically(tmp_path):
    """Byte-identical compile: recovery loses nothing a build can see."""
    from repro.parallel.image import structure_to_bytes

    d = str(tmp_path)
    rib = small_rib()
    updates = some_updates(30, seed=21)
    with Journal(d) as journal:
        journal.checkpoint(rib)
        pipeline = pipeline_for(journal, small_rib())
        for update in updates:
            pipeline.apply([update])
        oracle = pipeline.engine
    recovered = recover(d)
    assert structure_to_bytes(Poptrie.from_rib(recovered.rib)) == structure_to_bytes(
        Poptrie.from_rib(oracle.rib)
    )


def test_compile_recovered_refuses_a_table_that_disagrees(monkeypatch):
    """The recovered RIB's compile is checked against the RIB before it
    serves: a table that disagrees raises, naming the address."""
    from repro.errors import VerificationError
    from repro.robust.journal import compile_recovered

    rib, other = small_rib(), small_rib()
    other.insert(Prefix.parse("192.0.2.0/24"), 4)
    entry = registry.get("Poptrie18")
    monkeypatch.setattr(
        type(entry), "from_rib", lambda self, r, **options: Poptrie.from_rib(other)
    )
    with pytest.raises(VerificationError, match="but the RIB says 3"):
        compile_recovered(rib)
    assert compile_recovered(rib, samples=0) is not None
