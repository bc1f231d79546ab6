"""The route-update pipeline: one OP_UPDATE message, in one order.

:class:`UpdatePipeline` is the one write path of ``repro serve
--journal``, a cluster :class:`~repro.cluster.replica.Replica` (a
primary's messages, and a replica's shipped records, committed one
batch per heartbeat) and the churn harness: check in message order,
stage (every step that can fail, off to the side), journal with one
group commit (one write, one fsync), only then publish.  It is the only
writer of the write-ahead journal.  Each stage is timed into
``repro_update_latency_us``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.core.update import _count_txn
from repro.data.updates import StreamReport, Update, check_message
from repro.errors import ReproError
from repro.robust import faults


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
    """Check, stage, journal with one fsync, publish.

    ``engine`` is a registry structure with a bound RIB
    (``registry.get(name).from_rib(rib)``).  Every update is checked in
    message order by :func:`~repro.data.updates.check_message` against
    the RIB and ``engine.fib_limit``, and the engine stages the accepted
    ones (:meth:`~repro.lookup.base.LookupStructure._stage`).  A failed
    stage refuses the message before the journal sees it; a failed
    group commit abandons the stage.  ``pool`` is the worker pool
    behind ``handle`` under ``serve --workers``; ``checkpoint_every`` >
    0 checkpoints once that many records follow the last checkpoint.
    Callers serialise messages.  Calling it returns the report as the
    OP_UPDATE ack dict.
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
        report = UpdateReport()
        clock = time.perf_counter
        started = clock()
        accepted, positions = check_message(
            [faults.mangle_update(update) for update in updates],
            engine.rib, engine.fib_limit, report,
        )
        for _ in range(report.rejected):
            _count_txn("rejected")
        checked = clock()
        staged = engine._stage(accepted, positions, report) if accepted else None
        staged_at = clock()
        fsyncs = journal.stats.fsyncs
        if staged is not None:
            try:
                journal.append(accepted)
            except (OSError, ValueError, ReproError) as error:
                staged.abandon()
                staged = None
                for position in positions:
                    report.refuse(position, error)
                    _count_txn("journal_error")
        fsync_s = journal.last_fsync_s if journal.stats.fsyncs > fsyncs else 0.0
        journaled = applied = clock()
        if staged is not None:
            staged.publish()
            applied = clock()
            # Workers serve a frozen image: republish it, then flip the
            # handle.  Else only a structure the handle does not hold
            # (after an OP_RELOAD) needs a swap.
            if self.pool is not None:
                if report.applied:
                    handle.swap(self.pool.publish_structure(engine), wait=False)
                    report.swapped = True
            elif engine is not handle.structure:
                handle.swap(engine, wait=False)
                report.swapped = True
            handle.set_seqno(journal.applied_seqno)
            if self.checkpoint_every and (
                journal.last_seqno - journal.checkpoint_seqno
                >= self.checkpoint_every
            ):
                journal.checkpoint(engine.rib)
        report.errors.sort()
        report.seqno = journal.applied_seqno
        stages = report.stages_us
        stages["journal"] = (
            checked - started + journaled - staged_at - fsync_s
        ) * 1e6
        stages["fsync"] = fsync_s * 1e6
        stages["apply"] = (staged_at - checked + applied - journaled) * 1e6
        stages["publish"] = (clock() - applied) * 1e6
        for stage, elapsed_us in stages.items():
            observe_update_latency(handle.name, stage, elapsed_us)
        return report


__all__ = ["UpdatePipeline", "UpdateReport", "observe_update_latency"]
