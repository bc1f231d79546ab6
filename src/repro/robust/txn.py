"""Transactional route updates with rollback and graceful degradation.

:class:`TransactionalPoptrie` wraps the incremental update engine of
:class:`~repro.core.update.UpdatablePoptrie` in per-update transactions:

- **Validation first.**  Malformed updates (unknown kind, bad next hop,
  withdrawal of an absent prefix, wrong address family) are rejected with
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
journal writer: it group-commits a message before the engine applies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Tuple

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.core.update import UpdatablePoptrie
from repro.data.updates import validate_update
from repro.errors import ReplaceCostExceeded, ReproError, UpdateRejectedError
from repro.mem.buddy import OutOfMemory
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE
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
    #: Updates :class:`~repro.server.pipeline.UpdatePipeline` refused
    #: because their group commit failed (journal-then-publish: no
    #: durable record, no mutation).
    journal_failures: int = 0


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


@dataclass
class StreamReport:
    """What happened to each message of an :meth:`apply_stream` run."""

    applied: int = 0
    degraded: int = 0
    rejected: int = 0
    errors: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.applied + self.rejected

    def refuse(self, position: int, error: BaseException) -> None:
        """Record message ``position`` as rejected by ``error``."""
        self.rejected += 1
        self.errors.append((position, f"{type(error).__name__}: {error}"))


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
        self._transact("A", prefix, fib_index)

    def withdraw(self, prefix: Prefix) -> None:
        self._transact("W", prefix, None)

    def _transact(self, kind: str, prefix: Prefix, fib_index: Optional[int]) -> None:
        try:
            if kind == "A":
                self.check_announce(prefix, fib_index)
            elif kind == "W":
                self.check_withdraw(prefix)
            else:
                raise UpdateRejectedError(f"unknown update kind {kind!r}")
        except UpdateRejectedError:
            self.count_rejected()
            raise
        txn = Transaction(self)
        try:
            if kind == "A":
                previous = self.rib.insert(prefix, fib_index)
                txn.rib_undo.append(self._rib_inverse("A", prefix, previous))
                if previous == fib_index:
                    self.txn_stats.commits += 1  # no structural work needed
                    _count_txn("commit")
                    return
            else:
                previous = self.rib.delete(prefix)
                txn.rib_undo.append(self._rib_inverse("W", prefix, previous))
            self._apply(prefix)
        except ReplaceCostExceeded:
            txn.rollback()
            self.txn_stats.threshold_rebuilds += 1
            _count_txn("threshold_rebuild")
            self._rebuild(kind, prefix, fib_index)
        except Exception:
            txn.rollback()
            self.txn_stats.rollbacks += 1
            _count_txn("rollback")
            if not self.fallback_rebuild:
                raise
            self.txn_stats.fallback_rebuilds += 1
            _count_txn("fallback_rebuild")
            self._rebuild(kind, prefix, fib_index)
        else:
            self.txn_stats.commits += 1
            _count_txn("commit")
        finally:
            txn.close()

    def _rib_inverse(self, kind: str, prefix: Prefix, previous: int):
        """The inverse RIB operation for an applied announce/withdraw."""
        if kind == "A" and previous == NO_ROUTE:
            return lambda: self.rib.delete(prefix)
        return lambda: self.rib.insert(prefix, previous)

    def _rebuild(self, kind: str, prefix: Prefix, fib_index: Optional[int]) -> None:
        """Degraded path: service the update with a full compile.

        Re-applies the RIB mutation, compiles a fresh Poptrie from the RIB
        and publishes it with one attribute write.  On failure the RIB is
        restored and the error propagates — the old trie was never touched,
        so the structure stays consistent at the pre-update state.
        """
        if kind == "A":
            previous = self.rib.insert(prefix, fib_index)
        else:
            previous = self.rib.delete(prefix)
        undo = self._rib_inverse(kind, prefix, previous)
        try:
            with tracing.span("txn.rebuild"):
                rebuilt = Poptrie.from_rib(self.rib, self.trie.config)
        except Exception:
            undo()
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

    def count_rejected(self) -> None:
        """Account one update refused before it touched any state."""
        self.txn_stats.rejected += 1
        _count_txn("rejected")

    def apply_stream(self, updates: Iterable, on_error: str = "raise") -> StreamReport:
        """Apply a BGP-style update stream transactionally.

        Each message passes through the ``update`` fault-injection point
        (so an armed :class:`~repro.robust.faults.FaultPlan` can corrupt it
        in flight) and is then validated and applied under a transaction.
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
                try:
                    validate_update(update)
                except UpdateRejectedError as error:
                    self.count_rejected()
                    raise UpdateRejectedError(
                        f"message {position}: {error}"
                    ) from error
                self._apply_validated(update, report)
            except (ReproError, OutOfMemory) as error:
                report.refuse(position, error)
                if on_error == "raise":
                    raise
        return report

    def _apply_validated(self, update, report: StreamReport) -> None:
        """Apply one update that already passed the ``update`` fault point
        and :func:`validate_update`, counting it in ``report``; a failure
        raises, rolled back."""
        stats = self.txn_stats
        degradations = stats.fallback_rebuilds + stats.threshold_rebuilds
        if update.kind == "A":
            self.announce(update.prefix, update.nexthop)
        else:
            self.withdraw(update.prefix)
        report.applied += 1
        report.degraded += (
            stats.fallback_rebuilds + stats.threshold_rebuilds > degradations
        )
