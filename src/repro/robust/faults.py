"""Deterministic fault injection for the control plane.

A :class:`FaultPlan` is a context manager that arms *injection points*
threaded through the library:

``alloc``
    :meth:`repro.mem.buddy.BuddyAllocator.alloc` — the Nth allocation (or
    every Nth) raises :class:`~repro.errors.InjectedFault` before touching
    allocator state, modelling allocator exhaustion mid-update; the
    compile visits it once per block it places with
    :meth:`~repro.mem.buddy.BuddyAllocator.alloc_many`, before placing any.
``build``
    reached once per internal node a build emits: by
    :class:`repro.core.builder.Serializer` (staged patches and the scalar
    reference compile) and by :mod:`repro.core.compiler` (every
    :meth:`~repro.core.poptrie.Poptrie.from_rib`, which replays the
    ``build`` and ``alloc`` visits in the Serializer's order) — the Nth
    visit raises mid-build, modelling an exception while a replacement
    subtree or table is being constructed on the side.
``update``
    exactly two sites, each reached once per update:
    ``UpdatePipeline.apply`` (before the update check and the
    journal) and ``TransactionalPoptrie.apply_stream`` — the Nth update
    is *corrupted* (bad kind, negative or overflowing next hop, chosen
    by the plan's seeded RNG) instead of raising, modelling a malformed
    BGP message on the wire.
``snapshot``
    :func:`repro.parallel.image.save_structure` — the emitted blob
    is truncated by ``truncate_snapshot`` bytes, modelling a partial write
    (full disk, crash mid-write).
``journal``
    :meth:`repro.robust.journal.Journal.append` — the Nth append raises
    before any byte reaches the segment, modelling a failed write.
``fsync``
    :meth:`repro.robust.journal.Journal._fsync`, which the group commit
    of :meth:`~repro.robust.journal.Journal.append` reaches — the Nth
    fsync raises before calling ``os.fsync``, modelling a device error at
    the worst moment (records written but not durable).
``checkpoint``
    :meth:`repro.robust.journal.Journal.checkpoint` — the Nth checkpoint
    raises after the temporary file is written but *before* the atomic
    rename, modelling a crash mid-checkpoint (recovery must fall back to
    the previous checkpoint plus the full tail).
``conn-drop`` / ``conn-torn``
    :meth:`repro.server.service.LookupServer._respond` — the Nth response
    is dropped (connection closed before any byte) or torn (a partial
    frame is written, then the connection closed), modelling a server
    crash mid-response; clients must treat both as transport errors and
    retry on a fresh connection.
``torn-journal``
    the Nth journal append writes only the first ``torn_journal_bytes``
    bytes of the record and then raises, modelling a crash mid-append —
    exactly the damage :func:`repro.robust.journal.recover` must discard
    as a torn tail.

Only code that enters a plan ever sees a fault; the hooks are a single
``is None`` check when disarmed.  Plans nest: the innermost active plan
wins, and leaving the ``with`` block restores the previous one.

>>> from repro.mem.buddy import BuddyAllocator
>>> plan = FaultPlan(alloc_fail_every=2)
>>> with plan:
...     allocator = BuddyAllocator(capacity=16)
...     first = allocator.alloc(1)        # allocation #1: fine
...     try:
...         allocator.alloc(1)            # allocation #2: injected failure
...     except Exception as error:
...         print(error)
injected fault at alloc #2
>>> plan.fired
[('alloc', 2)]
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InjectedFault

#: The innermost armed plan, or ``None`` (the common, zero-cost case).
_ACTIVE: Optional["FaultPlan"] = None


def active_plan() -> Optional["FaultPlan"]:
    """The currently armed :class:`FaultPlan`, if any."""
    return _ACTIVE


def fault_point(site: str) -> None:
    """Hook called by instrumented code; raises when the armed plan says so."""
    plan = _ACTIVE
    if plan is not None:
        plan.hit(site)


def mangle_update(update: Any) -> Any:
    """Hook for the ``update`` site: return ``update``, possibly corrupted."""
    plan = _ACTIVE
    if plan is None:
        return update
    return plan.corrupt_update(update)


def mangle_snapshot(blob: bytes) -> bytes:
    """Hook for the ``snapshot`` site: return ``blob``, possibly truncated."""
    plan = _ACTIVE
    if plan is None or plan.truncate_snapshot is None:
        return blob
    count = plan.counters["snapshot"] = plan.counters.get("snapshot", 0) + 1
    plan.fired.append(("snapshot", count))
    drop = min(plan.truncate_snapshot, len(blob))
    return blob[: len(blob) - drop]


def torn_journal_write(record: bytes) -> Optional[bytes]:
    """Hook for the ``torn-journal`` site.

    Returns ``None`` in the common case.  When the armed plan schedules a
    torn write for this append, returns the *partial* record the journal
    must write before raising — modelling a crash mid-append.
    """
    plan = _ACTIVE
    if plan is None or plan.torn_journal_at is None:
        return None
    count = plan.counters["torn-journal"] = (
        plan.counters.get("torn-journal", 0) + 1
    )
    if count != plan.torn_journal_at:
        return None
    plan.fired.append(("torn-journal", count))
    keep = min(plan.torn_journal_bytes, max(len(record) - 1, 0))
    return record[:keep]


def connection_fault() -> Optional[Tuple[str, int]]:
    """Hook for the ``conn-drop`` / ``conn-torn`` response sites.

    Returns ``None`` (serve normally), ``("drop", 0)`` (close the
    connection without writing the response) or ``("torn", n)`` (write
    only the first ``n`` bytes of the frame, then close).
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.connection_fault()


class FaultPlan:
    """A deterministic, seeded schedule of faults to inject.

    ``*_fail_at`` fires once, on the Nth visit (1-based) to that site;
    ``*_fail_every`` fires on every Nth visit.  ``corrupt_update_at`` /
    ``corrupt_update_every`` select which update messages of a stream are
    mangled; ``truncate_snapshot`` is the number of bytes cut from the tail
    of every snapshot written while the plan is armed.  ``fired`` logs
    ``(site, visit_count)`` for every fault actually delivered, and
    ``counters`` the total visits per site, so tests can assert a sweep
    really exercised the paths it meant to.
    """

    def __init__(
        self,
        *,
        alloc_fail_at: Optional[int] = None,
        alloc_fail_every: Optional[int] = None,
        build_fail_at: Optional[int] = None,
        build_fail_every: Optional[int] = None,
        corrupt_update_at: Optional[int] = None,
        corrupt_update_every: Optional[int] = None,
        truncate_snapshot: Optional[int] = None,
        journal_fail_at: Optional[int] = None,
        journal_fail_every: Optional[int] = None,
        fsync_fail_at: Optional[int] = None,
        fsync_fail_every: Optional[int] = None,
        checkpoint_fail_at: Optional[int] = None,
        checkpoint_fail_every: Optional[int] = None,
        torn_journal_at: Optional[int] = None,
        torn_journal_bytes: int = 5,
        drop_response_at: Optional[int] = None,
        drop_response_every: Optional[int] = None,
        torn_response_at: Optional[int] = None,
        torn_response_bytes: int = 3,
        seed: int = 0,
    ) -> None:
        self._at = {"alloc": alloc_fail_at, "build": build_fail_at,
                    "update": corrupt_update_at,
                    "journal": journal_fail_at, "fsync": fsync_fail_at,
                    "checkpoint": checkpoint_fail_at}
        self._every = {"alloc": alloc_fail_every, "build": build_fail_every,
                       "update": corrupt_update_every,
                       "journal": journal_fail_every,
                       "fsync": fsync_fail_every,
                       "checkpoint": checkpoint_fail_every}
        self.torn_journal_at = torn_journal_at
        self.torn_journal_bytes = torn_journal_bytes
        self._drop_at = drop_response_at
        self._drop_every = drop_response_every
        self._torn_at = torn_response_at
        self.torn_response_bytes = torn_response_bytes
        if drop_response_every is not None and drop_response_every <= 0:
            raise ValueError("conn-drop period must be positive")
        for site, every in self._every.items():
            if every is not None and every <= 0:
                raise ValueError(f"{site} period must be positive")
        self.truncate_snapshot = truncate_snapshot
        self.rng = random.Random(seed)
        self.counters: Dict[str, int] = {}
        self.fired: List[Tuple[str, int]] = []
        self._previous: Optional[FaultPlan] = None

    # -- arming ---------------------------------------------------------------

    def __enter__(self) -> "FaultPlan":
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
        self._previous = None

    # -- firing ---------------------------------------------------------------

    def _due(self, site: str, count: int) -> bool:
        at = self._at.get(site)
        every = self._every.get(site)
        return (at is not None and count == at) or (
            every is not None and count % every == 0
        )

    def hit(self, site: str) -> None:
        """Count a visit to ``site``; raise if the schedule says so."""
        count = self.counters[site] = self.counters.get(site, 0) + 1
        if self._due(site, count):
            self.fired.append((site, count))
            raise InjectedFault(f"injected fault at {site} #{count}")

    def connection_fault(self) -> Optional[Tuple[str, int]]:
        """Decide the fate of one server response (see the ``conn-*`` sites).

        Drop and torn faults share one visit counter (a response can only
        die one way); drop is consulted first.
        """
        count = self.counters["conn"] = self.counters.get("conn", 0) + 1
        if (self._drop_at is not None and count == self._drop_at) or (
            self._drop_every is not None and count % self._drop_every == 0
        ):
            self.fired.append(("conn-drop", count))
            return ("drop", 0)
        if self._torn_at is not None and count == self._torn_at:
            self.fired.append(("conn-torn", count))
            return ("torn", self.torn_response_bytes)
        return None

    def corrupt_update(self, update: Any) -> Any:
        """Return ``update`` or a deterministically corrupted copy of it.

        Corruption modes (picked by the plan's seeded RNG) mirror malformed
        BGP messages: an unknown message kind, a negative next hop, and a
        next hop too wide for any leaf encoding.  The mangled message is
        still a well-typed ``Update`` object — it is the *validation* layer
        downstream that must catch it.
        """
        count = self.counters["update"] = self.counters.get("update", 0) + 1
        if not self._due("update", count):
            return update
        self.fired.append(("update", count))
        mode = self.rng.choice(("kind", "negative-nexthop", "huge-nexthop"))
        if mode == "kind":
            return dataclasses.replace(update, kind="?")
        if mode == "negative-nexthop":
            return dataclasses.replace(update, kind="A", nexthop=-1)
        return dataclasses.replace(update, kind="A", nexthop=1 << 40)
