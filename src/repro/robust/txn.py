"""Transactional route updates with rollback and graceful degradation.

:class:`TransactionalPoptrie` is the one engine that applies §3.5's
incremental updates (the surgery in :mod:`repro.core.update`), each in its
own transaction:

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
  undo log.  Because staging never writes anything a reader can
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

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.core.update import UpdateStats, _publish_update_obs, commit, stage
from repro.data.updates import (
    StreamReport, Update, check_update, fold_updates, unfold_updates,
)
from repro.errors import ReproError, UpdateRejectedError
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
    """A restore point for one update against a trie and its RIB.

    Captures everything the staging phase can disturb: a restore point on
    each buddy allocator (which logs the allocations staging makes), the
    trie's logical node/leaf counters, and ``rib_undo``, the undo log
    :func:`~repro.data.updates.fold_updates` returns for the RIB mutation.
    ``rollback`` reinstates all of it; because staging publishes nothing,
    readers never notice that the update was ever attempted.  Update
    statistics and the generation counter need no saving: only a commit,
    after the last fault point, touches them.  The caller calls ``close``
    on every exit — commit, rollback and degrade — so an allocation log
    never outlives its update.
    """

    def __init__(self, trie: Poptrie, rib: Rib) -> None:
        self.trie = trie
        self.rib = rib
        self.node_point = trie.node_alloc.snapshot()
        self.leaf_point = trie.leaf_alloc.snapshot()
        self.inode_count = trie.inode_count
        self.leaf_count = trie.leaf_count
        self.rib_undo: List[Tuple[Prefix, int]] = []

    def rollback(self) -> None:
        trie = self.trie
        trie.node_alloc.restore(self.node_point)
        trie.leaf_alloc.restore(self.leaf_point)
        trie.inode_count = self.inode_count
        trie.leaf_count = self.leaf_count
        unfold_updates(self.rib, self.rib_undo)
        self.rib_undo = []

    def close(self) -> None:
        """Close both restore points; points ``rollback`` already closed
        stay closed."""
        self.trie.node_alloc.close(self.node_point)
        self.trie.leaf_alloc.close(self.leaf_point)


class TransactionalPoptrie:
    """A Poptrie kept in sync with its RIB by incremental updates that
    commit or roll back.

    Each update is checked, folded into the RIB, staged on the side and
    published by :func:`repro.core.update.commit` (§3.5).  ``trie`` adopts
    an already-compiled Poptrie instead of recompiling — the caller
    guarantees it agrees with ``rib`` (a registry Poptrie's ``_stage``
    wraps the live served structure this way, so updates land in place).

    ``rebuild_threshold`` bounds the incremental replacement cost: an
    update that would replace more internal nodes is serviced by a full
    rebuild instead (cheaper than a giant surgical splice and it resets
    buddy fragmentation).  ``fallback_rebuild=False`` disables degradation
    so a failed incremental update propagates after rollback — useful for
    testing that rollback alone restores consistency.

    >>> up = TransactionalPoptrie()
    >>> up.announce(Prefix.parse("10.0.0.0/8"), 1)
    >>> up.announce(Prefix.parse("10.64.0.0/10"), 2)
    >>> up.lookup(Prefix.parse("10.64.1.1/32").value)
    2
    >>> up.withdraw(Prefix.parse("10.64.0.0/10"))
    >>> up.lookup(Prefix.parse("10.64.1.1/32").value)
    1
    >>> up.txn_stats.commits
    3
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
        self.rib = rib if rib is not None else Rib(width=width)
        self.trie = trie if trie is not None else Poptrie.from_rib(self.rib, config)
        self.stats = UpdateStats()
        #: Incremented once per committed update; a reader observing the same
        #: generation before and after a lookup saw a consistent structure.
        self.generation = 0
        self.rebuild_threshold = rebuild_threshold
        self.fallback_rebuild = fallback_rebuild
        self.txn_stats = TxnStats()

    def lookup(self, key: int) -> int:
        return self.trie.lookup(key)

    @property
    def fib_limit(self) -> int:
        """The largest next-hop index the trie's leaves encode."""
        return self.trie.fib_limit

    # -- transactional announce/withdraw -------------------------------------

    def announce(self, prefix: Prefix, fib_index: int) -> None:
        """Insert or replace a route and incrementally update the FIB.

        Raises :class:`~repro.errors.UpdateRejectedError` — before any
        state is mutated — when :func:`~repro.data.updates.check_update`
        refuses the update (say, a next hop beyond :attr:`fib_limit`).
        """
        self._transact(Update("A", prefix, fib_index))

    def withdraw(self, prefix: Prefix) -> None:
        """Remove a route and incrementally update the FIB.

        Raises :class:`~repro.errors.UpdateRejectedError` — before any
        state is mutated — when the prefix is not in the RIB.
        """
        self._transact(Update("W", prefix))

    def _transact(self, update: Update) -> None:
        stats = self.txn_stats
        try:
            check_update(update, self.rib, self.fib_limit)
        except UpdateRejectedError:
            stats.rejected += 1
            _count_txn("rejected")
            raise
        txn = Transaction(self.trie, self.rib)
        try:
            txn.rib_undo = fold_updates(self.rib, [update])
            if update.kind == "A" and txn.rib_undo[0][1] == update.nexthop:
                patch = None  # the same route again: no structural work
            else:
                patch = stage(self.trie, self.rib, update.prefix)
        except Exception:
            txn.rollback()
            stats.rollbacks += 1
            _count_txn("rollback")
            if not self.fallback_rebuild:
                raise
            stats.fallback_rebuilds += 1
            _count_txn("fallback_rebuild")
        else:
            threshold = self.rebuild_threshold
            if patch is None or threshold is None or patch.inodes <= threshold:
                if patch is not None:
                    commit(self.trie, patch, self.stats)
                    self.generation += 1
                stats.commits += 1
                _count_txn("commit")
                return
            txn.rollback()
            stats.threshold_rebuilds += 1
            _count_txn("threshold_rebuild")
        finally:
            txn.close()
        self._rebuild(update)

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
        _publish_update_obs(0, 0, 0, engine="rebuild")

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
