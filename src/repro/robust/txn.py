"""One route update at a time over the transactional Poptrie.

A bound Poptrie stages each message before anything is visible
(``Poptrie._stage``, §3.5).  :class:`TransactionalPoptrie` sends it
one-update messages: :meth:`~TransactionalPoptrie.announce` and
:meth:`~TransactionalPoptrie.withdraw` raise the refusal
(:class:`~repro.errors.UpdateRejectedError` when
:func:`repro.data.updates.check_update` refuses the update), and
:meth:`~TransactionalPoptrie.apply_stream` replays a stream through the
``update`` fault-injection point.  Its counters are the trie's.  It does
not journal: :class:`~repro.server.pipeline.UpdatePipeline` is the one
write-ahead journal writer.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.core.update import TxnStats, UpdateStats, _count_txn
from repro.data.updates import StreamReport, Update
from repro.errors import ReproError, UpdateRejectedError
from repro.mem.buddy import OutOfMemory
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.robust import faults


class _Raising(StreamReport):
    """The report of a one-update message: a refusal raises its error."""

    def refuse(self, position: int, error: BaseException) -> None:
        raise error


class TransactionalPoptrie:
    """A Poptrie kept in sync with its RIB, one update at a time.

    Each update is one message through the trie's
    :meth:`~repro.lookup.base.LookupStructure.apply_updates`.  ``trie``
    adopts an already-compiled Poptrie instead of recompiling — the
    caller guarantees it agrees with ``rib``.

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
        trie: Optional[Poptrie] = None,
    ) -> None:
        rib = rib if rib is not None else Rib(width=width)
        self.trie = trie if trie is not None else Poptrie.from_rib(rib, config)
        if self.trie.rib is not rib:
            self.trie.bind_rib(rib)

    @property
    def rib(self) -> Rib:
        return self.trie.rib

    @property
    def stats(self) -> UpdateStats:
        return self.trie.update_stats

    @property
    def txn_stats(self) -> TxnStats:
        return self.trie.txn_stats

    @property
    def generation(self) -> int:
        return self.trie.generation

    def lookup(self, key: int) -> int:
        return self.trie.lookup(key)

    def announce(self, prefix: Prefix, fib_index: int) -> None:
        """Insert or replace a route and incrementally update the FIB;
        raises the refusal (say, a next hop beyond ``fib_limit``)."""
        self._apply(Update("A", prefix, fib_index))

    def withdraw(self, prefix: Prefix) -> None:
        """Remove a route and incrementally update the FIB; raises the
        refusal (say, the prefix is not in the RIB)."""
        self._apply(Update("W", prefix))

    def _apply(self, update: Update) -> None:
        try:
            self.trie.apply_updates([update], _Raising())
        except UpdateRejectedError:
            self.trie.txn_stats.rejected += 1
            _count_txn("rejected")
            raise

    def apply_stream(self, updates: Iterable, on_error: str = "raise") -> StreamReport:
        """Apply a BGP-style update stream, one update at a time.

        Each update passes the ``update`` fault-injection point (an armed
        :class:`~repro.robust.faults.FaultPlan` may corrupt it) and is
        then announced or withdrawn.  ``on_error="skip"`` records failed
        updates in the report and keeps going; ``"raise"`` re-raises the
        first failure (nothing of it was applied).
        """
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', not {on_error!r}")
        report = StreamReport()
        stats = self.trie.txn_stats
        for position, update in enumerate(updates, 1):
            update = faults.mangle_update(update)
            rebuilds = stats.fallback_rebuilds + stats.threshold_rebuilds
            try:
                if update.kind == "A":
                    self.announce(update.prefix, update.nexthop)
                elif update.kind == "W":
                    self.withdraw(update.prefix)
                else:
                    self._apply(update)  # refused: an unknown kind
            except (ReproError, OutOfMemory) as error:
                report.refuse(position, error)
                if on_error == "raise":
                    raise
                continue
            report.applied += 1
            report.degraded += (
                stats.fallback_rebuilds + stats.threshold_rebuilds > rebuilds
            )
        return report
