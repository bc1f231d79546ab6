"""Transactional route updates with rollback and graceful degradation.

:class:`TransactionalPoptrie` wraps the incremental update engine of
:class:`~repro.core.update.UpdatablePoptrie` in per-update transactions:

- **Check first.**  Every update passes
  :func:`repro.data.updates.check_update`: malformed ones (unknown kind,
  a next hop outside ``1..fib_limit``, withdrawal of an absent prefix,
  wrong address family) are rejected with
  :class:`~repro.errors.UpdateRejectedError` before anything is touched.
- **Stage, then commit.**  The update engine builds the replacement
  subtree entirely on the side (fresh buddy blocks, children before
  parents) and publishes it with one atomic write — see
  :mod:`repro.core.update`.  Every fault that can fire (allocator
  exhaustion, an exception mid-subtree-build, a structural limit) fires
  during staging, *before* anything is visible.
- **Rollback.**  A :class:`Transaction` opens an O(1) restore point on
  each buddy allocator and saves the logical counters before the update.
  If staging raises, each allocator frees the blocks its point logged
  and the counters are reinstated; the RIB mutation is undone by its
  recorded inverse.  Because staging never writes anything a reader can
  see, this restores the *complete* pre-update state — trie, RIB and
  allocators — at a cost proportional to the update, not the table.
- **Graceful degradation.**  After a failed incremental update — or when
  the update would replace more than ``rebuild_threshold`` internal nodes
  — the updater falls back to a full ``Poptrie.from_rib`` rebuild and
  swaps it in with one attribute write, recording the downgrade in
  :class:`TxnStats`.  If the rebuild *also* fails (e.g. the injected fault
  is persistent), the RIB is restored and the error propagates with the
  structure still consistent at the pre-update state.

:meth:`TransactionalPoptrie.apply_stream` replays a BGP-style update
stream under this regime, routing each message through the ``update``
fault-injection point so tests can corrupt messages on the wire.

The engine does not journal.  Durability belongs to
:class:`~repro.server.pipeline.UpdatePipeline`, the one write-ahead
journal writer: it group-commits a message before a registry Poptrie
publishes it through this engine (``Poptrie._stage``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.core.update import UpdatablePoptrie
from repro.data.updates import (
    StreamReport, Update, check_update, fold_updates, unfold_updates,
)
from repro.errors import ReplaceCostExceeded, ReproError, UpdateRejectedError
from repro.mem.buddy import OutOfMemory
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.obs import tracing
from repro.robust import faults


@dataclass
class TxnStats:
    """Outcome accounting for the transactional update path."""

    commits: int = 0
    rollbacks: int = 0
    fallback_rebuilds: int = 0
    threshold_rebuilds: int = 0
    rejected: int = 0


def _count_txn(outcome: str) -> None:
    """Mirror one transactional outcome into the metrics registry.

    A no-op method call while observability is disabled (the null
    registry hands back a shared no-op counter).
    """
    from repro import obs

    obs.registry().counter(
        "repro_txn_outcomes_total",
        "Transactional update outcomes by kind.",
        outcome=outcome,
    ).inc()


class Transaction:
    """A restore point for one update against an UpdatablePoptrie.

    Captures everything the staging phase can disturb: a restore point on
    each buddy allocator (which logs the allocations staging makes), the
    trie's logical node/leaf counters, the generation counter and the
    update statistics.  Inverse RIB operations are appended to
    ``rib_undo`` by the caller as it mutates the RIB.  ``rollback``
    reinstates all of it; because staging publishes nothing, readers
    never notice that the update was ever attempted.  The caller calls
    ``close`` on every exit — commit, rollback and degrade — so an
    allocation log never outlives its update.
    """

    def __init__(self, up: UpdatablePoptrie) -> None:
        trie = up.trie
        self.up = up
        self.trie = trie
        self.node_point = trie.node_alloc.snapshot()
        self.leaf_point = trie.leaf_alloc.snapshot()
        self.inode_count = trie.inode_count
        self.leaf_count = trie.leaf_count
        self.generation = up.generation
        self.stats = replace(up.stats)
        self.rib_undo: List = []

    def rollback(self) -> None:
        trie = self.trie
        trie.node_alloc.restore(self.node_point)
        trie.leaf_alloc.restore(self.leaf_point)
        trie.inode_count = self.inode_count
        trie.leaf_count = self.leaf_count
        self.up.generation = self.generation
        self.up.stats = self.stats
        for undo in reversed(self.rib_undo):
            undo()
        self.rib_undo.clear()

    def close(self) -> None:
        """Close both restore points; points ``rollback`` already closed
        stay closed."""
        self.trie.node_alloc.close(self.node_point)
        self.trie.leaf_alloc.close(self.leaf_point)


class TransactionalPoptrie(UpdatablePoptrie):
    """An :class:`UpdatablePoptrie` whose updates commit or roll back.

    ``rebuild_threshold`` bounds the incremental replacement cost: an
    update that would replace more internal nodes is serviced by a full
    rebuild instead (cheaper than a giant surgical splice and it resets
    buddy fragmentation).  ``fallback_rebuild=False`` disables degradation
    so a failed incremental update propagates after rollback — useful for
    testing that rollback alone restores consistency.

    >>> up = TransactionalPoptrie()
    >>> up.announce(Prefix.parse("10.0.0.0/8"), 1)
    >>> up.lookup(Prefix.parse("10.9.9.9/32").value)
    1
    >>> up.txn_stats.commits
    1
    """

    def __init__(
        self,
        config: PoptrieConfig = PoptrieConfig(),
        width: int = 32,
        rib: Optional[Rib] = None,
        rebuild_threshold: Optional[int] = None,
        fallback_rebuild: bool = True,
        trie: Optional[Poptrie] = None,
    ) -> None:
        super().__init__(config, width, rib, trie=trie)
        self.rebuild_threshold = rebuild_threshold
        self.fallback_rebuild = fallback_rebuild
        self.txn_stats = TxnStats()

    # -- transactional announce/withdraw -------------------------------------

    def announce(self, prefix: Prefix, fib_index: int) -> None:
        self._transact(Update("A", prefix, fib_index))

    def withdraw(self, prefix: Prefix) -> None:
        self._transact(Update("W", prefix))

    def _transact(self, update: Update) -> None:
        try:
            check_update(update, self.rib, self.fib_limit)
        except UpdateRejectedError:
            self.txn_stats.rejected += 1
            _count_txn("rejected")
            raise
        txn = Transaction(self)
        try:
            undo = fold_updates(self.rib, [update])
            txn.rib_undo.append(lambda: unfold_updates(self.rib, undo))
            if update.kind == "A" and undo[0][1] == update.nexthop:
                self.txn_stats.commits += 1  # no structural work needed
                _count_txn("commit")
                return
            self._apply(update.prefix)
        except ReplaceCostExceeded:
            txn.rollback()
            self.txn_stats.threshold_rebuilds += 1
            _count_txn("threshold_rebuild")
            self._rebuild(update)
        except Exception:
            txn.rollback()
            self.txn_stats.rollbacks += 1
            _count_txn("rollback")
            if not self.fallback_rebuild:
                raise
            self.txn_stats.fallback_rebuilds += 1
            _count_txn("fallback_rebuild")
            self._rebuild(update)
        else:
            self.txn_stats.commits += 1
            _count_txn("commit")
        finally:
            txn.close()

    def _rebuild(self, update: Update) -> None:
        """Degraded path: service the update with a full compile.

        Re-applies the RIB mutation, compiles a fresh Poptrie from the RIB
        and publishes it with one attribute write.  On failure the RIB is
        restored and the error propagates — the old trie was never touched,
        so the structure stays consistent at the pre-update state.
        """
        undo = fold_updates(self.rib, [update])
        try:
            with tracing.span("txn.rebuild"):
                rebuilt = Poptrie.from_rib(self.rib, self.trie.config)
        except Exception:
            unfold_updates(self.rib, undo)
            raise
        # Carry per-instance lookup instrumentation over to the new trie so
        # an observed structure stays observed across degradation.
        if self.trie._obs_registry is not None:
            rebuilt.enable_obs(self.trie._obs_registry)
        self.trie = rebuilt  # single-reference swap: readers see old or new
        self.stats.updates += 1
        self.generation += 1
        self._publish_update_obs(0, 0, 0, engine="rebuild")

    # -- stream replay --------------------------------------------------------

    def apply_stream(self, updates: Iterable, on_error: str = "raise") -> StreamReport:
        """Apply a BGP-style update stream transactionally.

        Each message passes through the ``update`` fault-injection point
        (so an armed :class:`~repro.robust.faults.FaultPlan` can corrupt it
        in flight) and is then checked and applied under a transaction.
        ``on_error="skip"`` records failed messages in the report and keeps
        going — the production posture: one bad message must not take down
        the stream; ``on_error="raise"`` re-raises the first failure (state
        is already rolled back when it does).
        """
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', not {on_error!r}")
        report = StreamReport()
        for position, update in enumerate(updates, 1):
            update = faults.mangle_update(update)
            try:
                self._apply_one(update, report)
            except (ReproError, OutOfMemory) as error:
                report.refuse(position, error)
                if on_error == "raise":
                    raise
        return report

    def _apply_checked(self, updates, positions, report: StreamReport) -> None:
        """Apply updates that passed :func:`check_message`, one
        transaction each, refusing a failed one at its position — how a
        registry Poptrie publishes a message."""
        for position, update in zip(positions, updates):
            try:
                self._apply_one(update, report)
            except (ReproError, OutOfMemory) as error:
                report.refuse(position, error)

    def _apply_one(self, update: Update, report: StreamReport) -> None:
        """Check and apply one update, counting it in ``report``; a
        failure raises, rolled back."""
        stats = self.txn_stats
        degradations = stats.fallback_rebuilds + stats.threshold_rebuilds
        if update.kind == "A":
            self.announce(update.prefix, update.nexthop)
        elif update.kind == "W":
            self.withdraw(update.prefix)
        else:
            self._transact(update)  # refused: an unknown kind
        report.applied += 1
        report.degraded += (
            stats.fallback_rebuilds + stats.threshold_rebuilds > degradations
        )
