"""The route-update pipeline: one OP_UPDATE message, in one order.

:class:`UpdatePipeline` is the one write path of ``repro serve
--journal``, a cluster :class:`~repro.cluster.replica.Replica` (a
primary's messages, and a replica's shipped records, committed one
batch per heartbeat) and the churn harness: validate in message order,
journal with one group commit (one write, one fsync), only then apply,
publish.  It is the only writer of the write-ahead journal.  Each stage
is timed into ``repro_update_latency_us``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.update import check_rib_prefix, check_rib_withdraw
from repro.data.updates import Update, validate_update
from repro.errors import ReproError, UpdateRejectedError
from repro.mem.buddy import OutOfMemory
from repro.robust import faults
from repro.robust.txn import StreamReport, TransactionalPoptrie, _count_txn


def observe_update_latency(table: str, stage: str, elapsed_us: float) -> None:
    """Record one message's time in one stage: ``journal``, ``fsync``,
    ``apply``, ``publish``, or ``total`` (the server's OP_UPDATE handler
    end to end).  A no-op while observability is off."""
    from repro import obs

    obs.registry().histogram(
        "repro_update_latency_us",
        "Route-update message latency by pipeline stage.",
        buckets=obs.LATENCY_US_BUCKETS, table=table, stage=stage,
    ).observe(elapsed_us)


@dataclass
class UpdateReport(StreamReport):
    """A :class:`StreamReport` for one message, plus where it landed."""

    seqno: int = 0
    swapped: bool = False
    stages_us: Dict[str, float] = field(default_factory=dict)


class UpdatePipeline:
    """Validate, journal with one fsync, apply, publish.

    ``engine`` is a :class:`TransactionalPoptrie` or a registry structure
    with a bound RIB (applied through ``apply_updates``).  ``pool`` is
    the worker pool behind ``handle`` under ``serve --workers``;
    ``checkpoint_every`` > 0 checkpoints once that many records follow
    the last checkpoint.  Callers serialise messages.  Calling it
    returns the report as the OP_UPDATE ack dict.
    """

    def __init__(
        self, engine, journal, handle, pool=None, checkpoint_every: int = 0
    ) -> None:
        self.engine = engine
        self.journal = journal
        self.handle = handle
        self.pool = pool
        self.checkpoint_every = checkpoint_every
        handle.set_seqno(journal.applied_seqno)

    def __call__(self, updates: Sequence[Update]) -> dict:
        # vars, not dataclasses.asdict: its deep copy shows in update p50.
        return vars(self.apply(updates))

    def apply(self, updates: Sequence[Update]) -> UpdateReport:
        """Run one message through the pipeline: one group commit."""
        engine, journal, handle = self.engine, self.journal, self.handle
        txn = engine if isinstance(engine, TransactionalPoptrie) else None
        rib = txn.rib if txn is not None else engine.update_rib
        report = UpdateReport()
        stages = report.stages_us
        started = time.perf_counter()
        accepted, positions = self._validate(updates, txn, rib, report)
        fsyncs = journal.stats.fsyncs
        if accepted:
            try:
                journal.append(accepted)
            except (OSError, ValueError, ReproError) as error:
                if txn is not None:
                    txn.txn_stats.journal_failures += len(positions)
                for position in positions:
                    report.refuse(position, error)
                    _count_txn("journal_error")
                accepted = []
        fsync_s = journal.last_fsync_s if journal.stats.fsyncs > fsyncs else 0.0
        journaled = time.perf_counter()
        stages["journal"] = (journaled - started - fsync_s) * 1e6
        stages["fsync"] = fsync_s * 1e6
        if txn is not None:
            for position, update in zip(positions, accepted):
                try:
                    txn._apply_validated(update, report)
                except (ReproError, OutOfMemory) as error:
                    report.refuse(position, error)
        elif accepted:
            counts = engine.apply_updates(accepted)
            report.applied = counts["applied"]
            report.degraded = counts.get("degraded", 0)
            report.rejected += counts["rejected"]
        report.errors.sort()
        applied = time.perf_counter()
        stages["apply"] = (applied - journaled) * 1e6
        if accepted:
            # Workers serve a frozen image: republish it, then flip the
            # handle.  Else only a degrade to a new object needs a swap.
            structure = txn.trie if txn is not None else engine
            if self.pool is not None:
                if report.applied:
                    structure = self.pool.publish_structure(structure)
                    report.swapped = True
            elif structure is not handle.structure:
                report.swapped = True
            if report.swapped:
                handle.swap(structure, wait=False)
            handle.set_seqno(journal.applied_seqno)
            if self.checkpoint_every and (
                journal.last_seqno - journal.checkpoint_seqno
                >= self.checkpoint_every
            ):
                journal.checkpoint(rib)
        report.seqno = journal.applied_seqno
        stages["publish"] = (time.perf_counter() - applied) * 1e6
        for stage, elapsed_us in stages.items():
            observe_update_latency(handle.name, stage, elapsed_us)
        return report

    @staticmethod
    def _validate(updates, txn, rib, report: UpdateReport):
        """The accepted updates, and their (1-based) message positions."""
        routed: Dict = {}  # prefix -> routed after the message so far
        accepted: List[Update] = []
        positions: List[int] = []
        for position, update in enumerate(updates, 1):
            update = faults.mangle_update(update)
            try:
                validate_update(update)
                if update.kind == "W":
                    check_rib_withdraw(rib, update.prefix, routed)
                elif txn is not None:
                    txn.check_announce(update.prefix, update.nexthop)
                else:
                    check_rib_prefix(rib, update.prefix)
            except UpdateRejectedError as error:
                if txn is not None:
                    txn.count_rejected()
                report.refuse(position, error)
                continue
            routed[update.prefix] = update.kind == "A"
            accepted.append(update)
            positions.append(position)
        return accepted, positions


__all__ = ["UpdatePipeline", "UpdateReport", "observe_update_latency"]
