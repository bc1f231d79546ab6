"""Tests for the fault-tolerant control plane: transactions, verification
and fault injection (see docs/ROBUSTNESS.md).

The acceptance bar for the subsystem is the fault sweep at the bottom:
500-update streams with faults injected at every site in turn; after every
aborted-and-rolled-back or degraded update the structure must pass full
invariant verification *and* agree with the shadow radix tree on a
1,000-address sample.
"""

import random

import pytest

from tests.conftest import allocator_state, make_random_rib

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.data.updates import Update, generate_update_stream
from repro.errors import (
    InjectedFault,
    SnapshotFormatError,
    UpdateRejectedError,
    VerificationError,
)
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.robust import faults
from repro.robust.faults import FaultPlan
from repro.robust.txn import TransactionalPoptrie
from repro.robust.verify import verify_poptrie


def fingerprint(up):
    """Everything a failed update must leave untouched."""
    trie = up.trie
    return (
        allocator_state(trie.node_alloc),
        allocator_state(trie.leaf_alloc),
        trie.inode_count,
        trie.leaf_count,
        up.generation,
        sorted((p.text, h) for p, h in up.rib.routes()),
    )


def make_rib(n=500, seed=11):
    return make_random_rib(n, seed=seed)


# ---------------------------------------------------------------------------
# FaultPlan mechanics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_disarmed_by_default(self):
        assert faults.active_plan() is None
        faults.fault_point("alloc")  # must be a no-op

    def test_context_arms_and_disarms(self):
        with FaultPlan(alloc_fail_at=1000) as plan:
            assert faults.active_plan() is plan
        assert faults.active_plan() is None

    def test_disarms_after_exception(self):
        with pytest.raises(RuntimeError):
            with FaultPlan(alloc_fail_at=1000):
                raise RuntimeError("boom")
        assert faults.active_plan() is None

    def test_fail_at_fires_exactly_once(self):
        with FaultPlan(alloc_fail_at=3) as plan:
            faults.fault_point("alloc")
            faults.fault_point("alloc")
            with pytest.raises(InjectedFault, match="injected fault at alloc #3"):
                faults.fault_point("alloc")
            faults.fault_point("alloc")  # count 4: no longer fires
        assert plan.fired == [("alloc", 3)]
        assert plan.counters["alloc"] == 4

    def test_fail_every_fires_periodically(self):
        fired = 0
        with FaultPlan(build_fail_every=2) as plan:
            for _ in range(6):
                try:
                    faults.fault_point("build")
                except InjectedFault:
                    fired += 1
        assert fired == 3
        assert plan.fired == [("build", 2), ("build", 4), ("build", 6)]

    def test_sites_count_independently(self):
        with FaultPlan(alloc_fail_at=2, build_fail_at=1) as plan:
            faults.fault_point("alloc")
            with pytest.raises(InjectedFault):
                faults.fault_point("build")
            with pytest.raises(InjectedFault):
                faults.fault_point("alloc")
        assert plan.fired == [("build", 1), ("alloc", 2)]

    def test_corrupt_update_is_deterministic(self):
        update = Update("A", Prefix.parse("10.0.0.0/8"), 3)

        def corruptions(seed):
            out = []
            with FaultPlan(corrupt_update_every=1, seed=seed):
                for _ in range(8):
                    out.append(faults.mangle_update(update))
            return out

        assert corruptions(7) == corruptions(7)
        assert corruptions(7) != corruptions(8)
        # Every corruption is caught somewhere in the validation pipeline
        # (message level or the update target) before any state changes.
        up = TransactionalPoptrie(PoptrieConfig(s=0))
        for mangled in corruptions(7):
            assert mangled != update
            report = up.apply_stream([mangled], on_error="skip")
            assert report.rejected == 1

    def test_mangle_update_passthrough_when_disarmed(self):
        update = Update("A", Prefix.parse("10.0.0.0/8"), 3)
        assert faults.mangle_update(update) is update

    def test_mangle_snapshot_truncates(self):
        with FaultPlan(truncate_snapshot=16) as plan:
            assert faults.mangle_snapshot(b"x" * 100) == b"x" * 84
        assert plan.fired == [("snapshot", 1)]
        assert faults.mangle_snapshot(b"x" * 100) == b"x" * 100  # disarmed


# ---------------------------------------------------------------------------
# Invariant verification
# ---------------------------------------------------------------------------


class TestVerifier:
    @pytest.mark.parametrize("s", [0, 16])
    def test_healthy_trie_passes(self, s):
        rib = make_rib()
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=s))
        report = verify_poptrie(trie, rib, samples=500)
        assert report.nodes_checked == trie.inode_count
        assert report.leaves_checked == trie.leaf_count
        assert report.samples_checked > 500
        assert "cross-checked" in report.summary()

    def test_poptrie_method_is_the_same_check(self):
        rib = make_rib()
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        assert trie.verify(rib).nodes_checked == trie.inode_count

    def test_healthy_updated_trie_passes(self):
        rib = make_rib()
        up = TransactionalPoptrie(PoptrieConfig(s=16), rib=rib)
        for update in generate_update_stream(rib, 200, seed=5):
            if update.kind == "A":
                up.announce(update.prefix, update.nexthop)
            else:
                up.withdraw(update.prefix)
        up.trie.verify(up.rib, samples=500)

    def test_detects_vector_leafvec_overlap(self):
        rib = make_rib(100)
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=0))
        for index, vector, _, _, _ in trie.iter_nodes():
            if vector:
                trie.lvec[index] |= vector & -vector  # set a vector bit in lvec
                break
        with pytest.raises(VerificationError, match="overlap"):
            verify_poptrie(trie)

    def test_detects_missing_leafvec_run(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=0))
        trie.lvec[trie.root_index] = 0
        with pytest.raises(VerificationError, match="no leafvec run start"):
            verify_poptrie(trie)

    def test_detects_out_of_bounds_child_block(self):
        rib = make_rib(100)
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        for index, vector, _, _, _ in trie.iter_nodes():
            if vector:
                trie.base1[index] = 1 << 30
                break
        with pytest.raises(VerificationError, match="overflows"):
            verify_poptrie(trie)

    def test_detects_leaked_block(self):
        rib = make_rib(100)
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        trie.node_alloc.alloc(1 << trie.k)  # live but unreachable
        with pytest.raises(VerificationError, match="leak"):
            verify_poptrie(trie)

    def test_detects_use_after_free(self):
        rib = make_rib(100)
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        live = trie.node_alloc.live_blocks()
        offset = max(live)  # free a block the structure still references
        trie.node_alloc.free(offset)
        with pytest.raises(VerificationError, match="use-after-free|leak"):
            verify_poptrie(trie)

    def test_detects_count_drift(self):
        rib = make_rib(100)
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        trie.inode_count += 1
        with pytest.raises(VerificationError, match="inode_count"):
            verify_poptrie(trie)

    def test_detects_semantic_divergence(self):
        rib = make_rib(100)  # next hops are <= 50
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=0))
        # With s=0 every lookup terminates in a leaf read, so poisoning the
        # leaf values with an index no route uses guarantees divergence on
        # the very first sampled address — structurally the trie is intact.
        for i in range(len(trie.leaves)):
            trie.leaves[i] = 60
        verify_poptrie(trie)  # structure alone still passes
        with pytest.raises(VerificationError, match="RIB says"):
            verify_poptrie(trie, rib, samples=100)

    def test_rejects_width_mismatch(self):
        trie = Poptrie.from_rib(Rib(), PoptrieConfig(s=0))
        with pytest.raises(VerificationError, match="width"):
            verify_poptrie(trie, Rib(width=128))


# ---------------------------------------------------------------------------
# Transactions: rollback exactness, degradation, thresholds
# ---------------------------------------------------------------------------


class TestTransactions:
    def _up(self):
        rib = make_rib(400, seed=21)
        return TransactionalPoptrie(PoptrieConfig(s=16), rib=rib)

    # Periodic faults fail the stage and then the rebuild it falls back to.
    @pytest.mark.parametrize("plan_kwargs", [
        {"alloc_fail_every": 1},
        {"alloc_fail_every": 2},
        {"build_fail_every": 1},
        {"build_fail_every": 2},
    ])
    def test_rollback_restores_exact_state(self, plan_kwargs):
        up = self._up()
        before = fingerprint(up)
        with FaultPlan(**plan_kwargs) as plan:
            with pytest.raises(InjectedFault):
                up.announce(Prefix.parse("203.0.113.0/24"), 9)
        assert len(plan.fired) == 2, "the stage and the rebuild both fail"
        assert fingerprint(up) == before
        assert up.txn_stats.rollbacks == 1
        up.trie.verify(up.rib, samples=300)

    def test_rollback_restores_withdraw(self):
        up = self._up()
        prefix, _ = next(iter(up.rib.routes()))
        before = fingerprint(up)
        with FaultPlan(build_fail_every=1):
            with pytest.raises(InjectedFault):
                up.withdraw(prefix)
        assert fingerprint(up) == before
        up.trie.verify(up.rib, samples=300)

    def test_lookups_unchanged_after_aborted_update(self):
        """Deterministic form of the concurrency guarantee: an aborted
        update is not observable through the read path at all."""
        up = self._up()
        rng = random.Random(6)
        sample = [rng.getrandbits(32) for _ in range(2000)]
        before = [up.lookup(key) for key in sample]
        with FaultPlan(alloc_fail_every=1):
            with pytest.raises(InjectedFault):
                up.announce(Prefix.parse("198.51.100.0/24"), 4)
        assert [up.lookup(key) for key in sample] == before

    def test_fallback_rebuild_services_the_update(self):
        up = self._up()
        prefix = Prefix.parse("203.0.113.0/24")
        with FaultPlan(build_fail_at=1):
            up.announce(prefix, 9)
        assert up.txn_stats.fallback_rebuilds == 1
        assert up.lookup(Prefix.parse("203.0.113.5/32").value) == 9
        up.trie.verify(up.rib, samples=300)

    def test_rejection_precedes_transaction(self):
        up = self._up()
        before = fingerprint(up)
        with pytest.raises(UpdateRejectedError):
            up.announce(Prefix.parse("10.0.0.0/8"), 1 << 20)
        with pytest.raises(UpdateRejectedError):
            up.withdraw(Prefix.parse("203.0.113.0/27"))
        assert fingerprint(up) == before
        assert up.txn_stats.rejected == 2
        assert up.txn_stats.rollbacks == 0

    def test_threshold_degrades_to_rebuild(self):
        """An empty trie holds no internal node, so the first subtree
        under a direct entry is a patch larger than the live trie: the
        message is serviced by a staged rebuild."""
        up = TransactionalPoptrie(PoptrieConfig(s=16))
        assert up.trie.inode_count == 0
        generation = up.generation
        up.announce(Prefix.parse("203.0.113.0/24"), 9)
        assert up.txn_stats.threshold_rebuilds == 1
        assert up.txn_stats.commits == 0
        assert up.generation == generation + 1
        assert up.lookup(Prefix.parse("203.0.113.5/32").value) == 9
        up.trie.verify(up.rib, samples=300)

    def test_generous_threshold_stays_incremental(self):
        up = self._up()
        up.announce(Prefix.parse("203.0.113.0/24"), 9)
        assert up.txn_stats.threshold_rebuilds == 0
        assert up.txn_stats.commits == 1

    def test_every_exit_closes_the_restore_points(self):
        """Commit, no-op, refusal and degrade all close both allocation
        logs, so no log outlives its message."""
        up = self._up()
        prefix = Prefix.parse("203.0.113.0/24")

        def open_points(trie):
            return [a._point for a in (trie.node_alloc, trie.leaf_alloc)
                    if a._point is not None]

        up.announce(prefix, 9)
        assert open_points(up.trie) == []
        up.announce(prefix, 9)  # no structural work
        assert open_points(up.trie) == []
        with FaultPlan(alloc_fail_every=1):
            with pytest.raises(InjectedFault):
                up.announce(prefix, 7)
        assert open_points(up.trie) == []
        with FaultPlan(build_fail_at=1):
            up.announce(prefix, 5)
        assert up.txn_stats.fallback_rebuilds == 1
        assert open_points(up.trie) == []

    def test_persistent_fault_propagates_with_state_intact(self):
        """If the rebuild fails too, the pre-update state survives."""
        up = self._up()
        before = fingerprint(up)
        with FaultPlan(alloc_fail_every=1):  # every allocation fails
            with pytest.raises(InjectedFault):
                up.announce(Prefix.parse("203.0.113.0/24"), 9)
        assert fingerprint(up) == before
        up.trie.verify(up.rib, samples=300)


# ---------------------------------------------------------------------------
# Stream replay
# ---------------------------------------------------------------------------


class TestApplyStream:
    def test_clean_stream(self):
        rib = make_rib(400, seed=23)
        up = TransactionalPoptrie(PoptrieConfig(s=16), rib=rib)
        report = up.apply_stream(generate_update_stream(rib, 200, seed=8))
        assert report.applied == 200 and report.rejected == 0
        assert up.txn_stats.commits >= 200
        up.trie.verify(up.rib, samples=500)

    def test_corrupted_messages_skipped_and_reported(self):
        rib = make_rib(400, seed=24)
        up = TransactionalPoptrie(PoptrieConfig(s=16), rib=rib)
        stream = generate_update_stream(rib, 120, seed=9)
        with FaultPlan(corrupt_update_every=10, seed=1) as plan:
            report = up.apply_stream(stream, on_error="skip")
        assert len(plan.fired) == 12
        assert report.rejected == 12 and report.applied == 108
        assert [position for position, _ in report.errors] == list(
            range(10, 121, 10)
        )
        for _, message in report.errors:
            assert "UpdateRejectedError" in message or "outside" in message
        up.trie.verify(up.rib, samples=500)

    def test_raise_mode_stops_at_first_fault(self):
        rib = make_rib(400, seed=25)
        up = TransactionalPoptrie(PoptrieConfig(s=16), rib=rib)
        stream = generate_update_stream(rib, 50, seed=10)
        before = fingerprint(up)
        with FaultPlan(corrupt_update_at=1, seed=2):
            with pytest.raises(UpdateRejectedError):
                up.apply_stream(stream, on_error="raise")
        assert fingerprint(up) == before

    def test_unknown_kind_rejected(self):
        up = TransactionalPoptrie(PoptrieConfig(s=0))
        bad = Update("X", Prefix.parse("10.0.0.0/8"), 1)
        report = up.apply_stream([bad], on_error="skip")
        assert report.rejected == 1
        assert "unknown update kind" in report.errors[0][1]

    def test_bad_on_error_value(self):
        up = TransactionalPoptrie(PoptrieConfig(s=0))
        with pytest.raises(ValueError, match="on_error"):
            up.apply_stream([], on_error="ignore")


# ---------------------------------------------------------------------------
# Snapshot fault injection
# ---------------------------------------------------------------------------


class TestSnapshotFaults:
    def test_truncated_snapshot_rejected_on_load(self, tmp_path):
        from repro.parallel.image import load_structure, save_structure

        rib = make_rib(100)
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=12))
        path = str(tmp_path / "fib.poptrie")
        with FaultPlan(truncate_snapshot=64):
            save_structure(trie, path)
        with pytest.raises(SnapshotFormatError):
            load_structure(path)

    def test_save_is_clean_when_disarmed(self, tmp_path):
        from repro.parallel.image import load_structure, save_structure

        rib = make_rib(100)
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=12))
        path = str(tmp_path / "fib.poptrie")
        save_structure(trie, path)
        assert load_structure(path).inode_count == trie.inode_count


# ---------------------------------------------------------------------------
# The acceptance-criteria fault sweep: 500 updates per injection site.
# ---------------------------------------------------------------------------


# A rebuild of the 400-route table allocates and emits ~390 blocks and
# nodes: a period below that fails the rebuild a failed stage falls back
# to (the update is rolled back), a longer one lets it service the update.
SWEEP_SITES = [
    pytest.param({"alloc_fail_every": 97}, False, id="alloc-rollback"),
    pytest.param({"alloc_fail_every": 1000}, True, id="alloc-degrade"),
    pytest.param({"build_fail_every": 101}, False, id="build-rollback"),
    pytest.param({"build_fail_every": 600}, True, id="build-degrade"),
    pytest.param({"corrupt_update_every": 29}, False, id="corrupt-message"),
]


@pytest.mark.parametrize("plan_kwargs,degrades", SWEEP_SITES)
def test_fault_sweep_500_updates(plan_kwargs, degrades):
    """For each injection site: drive a 500-update stream with periodic
    faults; after every aborted-and-rolled-back or degraded update the
    structure passes full verification and a 1,000-address sample agrees
    with the shadow radix tree.  The stream must also make progress (the
    faults are periodic, not persistent)."""
    rib = make_rib(400, seed=42)
    up = TransactionalPoptrie(PoptrieConfig(s=16), rib=rib)
    stream = generate_update_stream(rib, 500, seed=42)
    rng = random.Random(1234)
    sample = [rng.getrandbits(32) for _ in range(1000)]

    aborted = applied = checked = 0
    with FaultPlan(**plan_kwargs, seed=3) as plan:
        for update in stream:
            degradations = (
                up.txn_stats.fallback_rebuilds + up.txn_stats.threshold_rebuilds
            )
            mangled = faults.mangle_update(update)
            try:
                if getattr(mangled, "kind", None) == "A":
                    up.announce(mangled.prefix, mangled.nexthop)
                elif getattr(mangled, "kind", None) == "W":
                    up.withdraw(mangled.prefix)
                else:
                    raise UpdateRejectedError(f"unknown kind {mangled.kind!r}")
            except (InjectedFault, UpdateRejectedError):
                aborted += 1
            else:
                applied += 1
            degraded = (
                up.txn_stats.fallback_rebuilds + up.txn_stats.threshold_rebuilds
            ) > degradations
            if aborted + applied == 1 or degraded or checked < aborted:
                # Verify after every aborted or degraded update (and once
                # at the start); healthy commits are covered by the final
                # full verification below.
                checked = aborted
                up.trie.verify(up.rib, samples=0)
                for key in sample:
                    assert up.lookup(key) == up.rib.lookup(key)

    assert plan.fired, "the sweep must actually have injected faults"
    assert aborted + applied == 500
    assert applied > 250, "periodic faults must not starve the stream"
    if "corrupt_update_every" not in plan_kwargs:
        stats = up.txn_stats
        assert (stats.fallback_rebuilds > 0) == degrades
        assert (stats.rollbacks > 0) != degrades
    report = up.trie.verify(up.rib, samples=1000)
    assert report.samples_checked >= 1000
