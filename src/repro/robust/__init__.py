"""Fault-tolerant control plane: transactions, durability, verification,
fault injection.

Four pieces, documented in ``docs/ROBUSTNESS.md``:

- :mod:`repro.robust.txn` — :class:`TransactionalPoptrie`, the
  per-update API over the Poptrie's transactional stage, whose updates
  either commit atomically or leave RIB, trie and buddy-allocator state
  as they were, with graceful degradation to a full rebuild;
- :mod:`repro.robust.journal` — :class:`Journal`, the CRC-framed
  write-ahead log of route updates with checkpoint/truncate, and
  :func:`recover`, which rebuilds the durable RIB after a crash
  (``python -m repro recover``);
- :mod:`repro.robust.verify` — the invariant verifier behind
  ``Poptrie.verify(rib)`` and ``python -m repro verify``;
- :mod:`repro.robust.faults` — the :class:`FaultPlan` context manager that
  arms deterministic injection points threaded through the allocator, the
  builder, the update stream, snapshot writing, the journal (append /
  fsync / checkpoint / torn-write) and the lookup service's response path
  (connection drop, torn frame).

This ``__init__`` imports only :mod:`~repro.robust.faults` eagerly: the
fault hooks are imported by low-level modules (``repro.mem.buddy``), so the
heavier submodules — which depend on those low-level modules — are exposed
lazily to keep the import graph acyclic.
"""

from repro.robust.faults import FaultPlan, active_plan, fault_point

_LAZY = {
    "TransactionalPoptrie": "repro.robust.txn",
    "TxnStats": "repro.core.update",
    "StreamReport": "repro.robust.txn",
    "VerificationReport": "repro.robust.verify",
    "verify_poptrie": "repro.robust.verify",
    "Journal": "repro.robust.journal",
    "JournalStats": "repro.robust.journal",
    "RecoveryResult": "repro.robust.journal",
    "recover": "repro.robust.journal",
    "read_segment": "repro.robust.journal",
}

__all__ = ["FaultPlan", "active_plan", "fault_point", *_LAZY]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
