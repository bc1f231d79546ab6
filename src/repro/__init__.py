"""Poptrie reproduction library.

A production-quality reimplementation of "Poptrie: A Compressed Trie with
Population Count for Fast and Scalable Software IP Routing Table Lookup"
(Asai & Ohara, SIGCOMM 2015), together with every substrate and baseline
its evaluation depends on: the radix-tree RIB, Tree BitMap, DXR, SAIL,
DIR-24-8, a buddy allocator, a cache/cycle simulator, dataset and traffic
synthesis, and a benchmark harness that regenerates every table and
figure of the paper's Section 4.

Quick start::

    from repro import Poptrie, PoptrieConfig, Prefix, Rib

    rib = Rib()
    rib.insert(Prefix.parse("192.0.2.0/24"), 1)
    trie = Poptrie.from_rib(rib, PoptrieConfig(s=18))
    trie.lookup(Prefix.parse("192.0.2.77/32").value)   # -> 1

Any roster structure builds the same way through the algorithm registry::

    from repro.lookup import registry

    structure = registry.get("Poptrie18").from_rib(rib)

See README.md for the architecture overview, DESIGN.md for the system
inventory, docs/API.md for the public surface and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro import obs
from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.errors import (
    ClusterError,
    InjectedFault,
    JournalCorrupt,
    JournalGap,
    PoolError,
    ProtocolError,
    ReproError,
    SnapshotFormatError,
    StructuralLimitError,
    TableFormatError,
    UpdateRejectedError,
    VerificationError,
)
from repro.lookup import registry
from repro.lookup.base import LookupStructure
from repro.net.values import NO_ROUTE, NO_VALUE, Fib, NextHop, ValueTable
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.robust.faults import FaultPlan
from repro.robust.txn import TransactionalPoptrie
from repro.robust.verify import verify_poptrie
from repro.server import LoadGenerator, LookupServer, TableHandle

__version__ = "1.4.0"

# The journal machinery, the multicore data plane and the replication
# cluster are exposed lazily (PEP 562): importing repro must not pay for
# — or depend on — the durability, multiprocessing or clustering stacks
# until they are used.
_LAZY = {
    "Journal": "repro.robust.journal",
    "recover": "repro.robust.journal",
    "RecoveryResult": "repro.robust.journal",
    "JournalTailer": "repro.robust.journal",
    "TableImage": "repro.parallel",
    "WorkerPool": "repro.parallel",
    "PoolConfig": "repro.parallel",
    "ClusterRouter": "repro.cluster",
    "Replica": "repro.cluster",
    "ReplicationPublisher": "repro.cluster",
    "ShardMap": "repro.cluster",
    "build_shard_map": "repro.cluster",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "Poptrie",
    "PoptrieConfig",
    "LookupStructure",
    "registry",
    "obs",
    "TransactionalPoptrie",
    "FaultPlan",
    "verify_poptrie",
    # durability (lazy — see __getattr__)
    "Journal",
    "recover",
    "RecoveryResult",
    "JournalTailer",
    # the multicore data plane (lazy — see __getattr__)
    "TableImage",
    "WorkerPool",
    "PoolConfig",
    # the route-lookup service
    "LookupServer",
    "TableHandle",
    "LoadGenerator",
    # the replicated lookup cluster (lazy — see __getattr__)
    "ClusterRouter",
    "Replica",
    "ReplicationPublisher",
    "ShardMap",
    "build_shard_map",
    "ReproError",
    "PoolError",
    "StructuralLimitError",
    "TableFormatError",
    "SnapshotFormatError",
    "UpdateRejectedError",
    "VerificationError",
    "InjectedFault",
    "JournalCorrupt",
    "JournalGap",
    "ClusterError",
    "ProtocolError",
    "NO_ROUTE",
    "NO_VALUE",
    "Fib",
    "NextHop",
    "ValueTable",
    "Prefix",
    "Rib",
    "__version__",
]
