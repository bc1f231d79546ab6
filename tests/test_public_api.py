"""Snapshot test of the library's public API surface.

A failure here means the public contract changed.  If the change is
intentional, update the snapshot below *and* docs/API.md in the same
commit; if not, you just caught an accidental break.
"""

from __future__ import annotations

import repro
from repro import obs
from repro.lookup import registry

GUIDANCE = (
    "public API changed — if intentional, update this snapshot and "
    "docs/API.md together"
)

EXPECTED_TOP_LEVEL = {
    # the algorithm & its configuration
    "Poptrie", "PoptrieConfig", "TransactionalPoptrie",
    # the uniform lookup surface
    "LookupStructure", "registry",
    # observability
    "obs",
    # robustness toolkit
    "FaultPlan", "verify_poptrie",
    # durability (journal + crash recovery + tail shipping)
    "Journal", "recover", "RecoveryResult", "JournalTailer",
    # the route-lookup service
    "LookupServer", "TableHandle", "LoadGenerator",
    # the multicore data plane (zero-copy images + shared-memory pool)
    "TableImage", "WorkerPool", "PoolConfig",
    # the replicated lookup cluster
    "ClusterRouter", "Replica", "ReplicationPublisher",
    "ShardMap", "build_shard_map",
    # errors
    "ReproError", "StructuralLimitError", "TableFormatError",
    "SnapshotFormatError", "UpdateRejectedError", "VerificationError",
    "InjectedFault", "ProtocolError", "JournalCorrupt", "JournalGap",
    "PoolError", "ClusterError",
    # network substrate & the typed value plane
    "NO_ROUTE", "NO_VALUE", "Fib", "NextHop", "Prefix", "Rib", "ValueTable",
    # metadata
    "__version__",
}

EXPECTED_ALGORITHMS = {
    "Radix", "Tree BitMap", "Tree BitMap (64-ary)", "SAIL", "DIR-24-8",
    "D16R", "D18R", "Multibit", "Patricia", "BSearch-Lengths", "Bloom",
    "Lulea", "Poptrie0", "Poptrie16", "Poptrie18",
}

EXPECTED_PARALLEL = {
    "TableImage", "WorkerPool", "PoolConfig", "PoolView",
    "image_to_structure", "load_structure", "save_structure",
    "structure_from_bytes", "structure_to_bytes",
}

EXPECTED_SERVER = {
    "LookupServer", "ServerConfig", "ServerStats", "TableHandle",
    "TableVersion", "UpdatePipeline", "UpdateReport", "LoadGenerator",
    "LoadGenConfig", "LoadReport", "protocol",
}

EXPECTED_CLUSTER = {
    # one node, the shipping channel, and its client helpers
    "Replica", "ReplicationPublisher",
    "query_info", "request_promote", "request_retarget",
    # the quorum write path (serve --min-insync N)
    "QuorumConfig", "QuorumGate",
    # client-side routing and failover coordination
    "ClusterRouter", "FailoverMonitor", "RouterConfig", "elect_and_promote",
    # prefix-space shard maps
    "Shard", "ShardMap", "build_shard_map", "naive_shard_map",
    "shard_balance", "shard_rib",
}

EXPECTED_KERNELS = {
    # the stateless kernel contract and its bound form
    "LookupKernel", "BoundKernel",
    # the per-engine kernels
    "PoptrieKernel", "Dir24_8Kernel", "SailKernel", "DxrKernel",
    # resolution + binding
    "attach", "kernel_for", "kernel_for_class",
    "register_kernel", "available_kernels",
    # the popcount primitive and the IPv6 (hi, lo) key split
    "popcount64", "split_v6",
}

EXPECTED_OBS = {
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "NULL_REGISTRY", "ProfileResult", "SpanRecord", "clear_spans",
    "disable", "enable", "enabled", "profiled", "recent_spans", "registry",
    "span", "DEPTH_BUCKETS", "LATENCY_US_BUCKETS", "OCCUPANCY_BUCKETS",
    "SECONDS_BUCKETS",
}


#: The wire protocol's status codes and version are frozen numbers: old
#: clients interpret them, so renumbering is a compatibility break.
EXPECTED_PROTOCOL = {
    "PROTOCOL_VERSION": 2,
    "SUPPORTED_VERSIONS": frozenset({1, 2}),
    "STATUS_OK": 0,
    "STATUS_BAD_REQUEST": 1,
    "STATUS_WRONG_FAMILY": 2,
    "STATUS_UNSUPPORTED": 3,
    "STATUS_SERVER_ERROR": 4,
    "STATUS_SHUTTING_DOWN": 5,
    "STATUS_OVERLOAD": 6,
    "STATUS_DEADLINE_EXCEEDED": 7,
    "STATUS_QUORUM_TIMEOUT": 8,
}

#: Replication frame types are wire-frozen the same way: a replica built
#: against an old primary must still parse the stream (or refuse it with
#: a typed error), so renumbering is a compatibility break.
EXPECTED_REPLICATION_FRAMES = {
    "FRAME_HELLO": 1,
    "FRAME_CHECKPOINT": 2,
    "FRAME_RECORD": 3,
    "FRAME_HEARTBEAT": 4,
    "FRAME_QUERY": 5,
    "FRAME_INFO": 6,
    "FRAME_PROMOTE": 7,
    "FRAME_RETARGET": 8,
    "FRAME_ACK": 9,
}


def test_top_level_exports_are_frozen():
    assert set(repro.__all__) == EXPECTED_TOP_LEVEL, GUIDANCE
    for name in repro.__all__:
        assert hasattr(repro, name), f"{name} exported but missing"


def test_lazy_journal_exports_resolve():
    from repro.robust.journal import Journal, RecoveryResult, recover

    assert repro.Journal is Journal
    assert repro.recover is recover
    assert repro.RecoveryResult is RecoveryResult
    assert "Journal" in dir(repro)


def test_lazy_parallel_exports_resolve():
    from repro.parallel import PoolConfig, TableImage, WorkerPool

    assert repro.TableImage is TableImage
    assert repro.WorkerPool is WorkerPool
    assert repro.PoolConfig is PoolConfig
    assert "TableImage" in dir(repro)


def test_parallel_exports_are_frozen():
    from repro import parallel

    assert set(parallel.__all__) == EXPECTED_PARALLEL, GUIDANCE
    for name in parallel.__all__:
        assert hasattr(parallel, name), f"{name} exported but missing"


def test_pool_error_taxonomy():
    assert issubclass(repro.PoolError, repro.ReproError)
    assert issubclass(repro.PoolError, RuntimeError)


def test_protocol_constants_are_frozen():
    from repro.server import protocol

    for name, value in EXPECTED_PROTOCOL.items():
        assert getattr(protocol, name) == value, GUIDANCE
    # Quorum timeouts are retryable: the batch IS applied and journaled
    # locally, and route updates are idempotent on re-send.
    assert protocol.RETRYABLE_STATUSES == frozenset(
        {
            protocol.STATUS_OVERLOAD,
            protocol.STATUS_DEADLINE_EXCEEDED,
            protocol.STATUS_SHUTTING_DOWN,
            protocol.STATUS_QUORUM_TIMEOUT,
        }
    )


def test_replication_frame_types_are_frozen():
    from repro.cluster import replication

    for name, value in EXPECTED_REPLICATION_FRAMES.items():
        assert getattr(replication, name) == value, GUIDANCE


def test_journal_corrupt_taxonomy():
    assert issubclass(repro.JournalCorrupt, repro.ReproError)
    assert issubclass(repro.JournalCorrupt, ValueError)


def test_cluster_exports_are_frozen():
    from repro import cluster

    assert set(cluster.__all__) == EXPECTED_CLUSTER, GUIDANCE
    for name in cluster.__all__:
        assert hasattr(cluster, name), f"{name} exported but missing"


def test_lazy_cluster_exports_resolve():
    from repro.cluster import (
        ClusterRouter,
        Replica,
        ReplicationPublisher,
        ShardMap,
        build_shard_map,
    )
    from repro.robust.journal import JournalTailer

    assert repro.ClusterRouter is ClusterRouter
    assert repro.Replica is Replica
    assert repro.ReplicationPublisher is ReplicationPublisher
    assert repro.ShardMap is ShardMap
    assert repro.build_shard_map is build_shard_map
    assert repro.JournalTailer is JournalTailer
    assert "ClusterRouter" in dir(repro)


def test_lazy_quorum_exports_resolve():
    import repro.cluster as cluster
    from repro.cluster.replication import QuorumConfig, QuorumGate

    assert cluster.QuorumConfig is QuorumConfig
    assert cluster.QuorumGate is QuorumGate
    assert "QuorumConfig" in dir(cluster)


def test_cluster_error_taxonomy():
    assert issubclass(repro.ClusterError, repro.ReproError)
    assert issubclass(repro.ClusterError, RuntimeError)
    # JournalGap is a shipping-channel signal (re-sync from checkpoint),
    # deliberately NOT a JournalCorrupt: nothing on disk is damaged.
    assert issubclass(repro.JournalGap, repro.ReproError)
    assert not issubclass(repro.JournalGap, repro.JournalCorrupt)
    assert repro.JournalGap("x", resync_seqno=7).resync_seqno == 7


def test_registry_names_are_frozen():
    assert set(registry.available()) == EXPECTED_ALGORITHMS, GUIDANCE
    assert set(registry.STANDARD_ALGORITHMS) <= EXPECTED_ALGORITHMS


def test_obs_exports_are_frozen():
    assert set(obs.__all__) == EXPECTED_OBS, GUIDANCE
    for name in obs.__all__:
        assert hasattr(obs, name), f"{name} exported but missing"


def test_server_exports_are_frozen():
    from repro import server

    assert set(server.__all__) == EXPECTED_SERVER, GUIDANCE
    for name in server.__all__:
        assert hasattr(server, name), f"{name} exported but missing"


def test_kernels_exports_are_frozen():
    from repro.lookup import kernels

    assert set(kernels.__all__) == EXPECTED_KERNELS, GUIDANCE
    for name in kernels.__all__:
        assert hasattr(kernels, name), f"{name} exported but missing"


def test_kernels_registry_round_trip():
    """The registry's capability gates agree with the kernel module."""
    from repro.lookup import kernels

    for name in registry.available():
        entry = registry.get(name)
        assert entry.supports_kernel == (
            kernels.kernel_for_class(entry.cls) is not None
        )


#: Engines with a native incremental update path; everything else takes
#: the measured rebuild fallback.  Growing this set is an improvement;
#: shrinking it is a capability regression this snapshot catches.
EXPECTED_INCREMENTAL = {"Poptrie0", "Poptrie16", "Poptrie18"}


def test_incremental_registry_round_trip():
    """``supports_incremental`` mirrors the class's template hook."""
    incremental = set()
    for name in registry.available():
        entry = registry.get(name)
        assert entry.supports_incremental == entry.cls.supports_incremental()
        if entry.supports_incremental:
            incremental.add(name)
    assert incremental == EXPECTED_INCREMENTAL, GUIDANCE


def test_apply_updates_surface_is_frozen():
    """The update surface every structure now carries (see docs/CHURN.md)."""
    from repro.lookup.base import LookupStructure

    for name in ("apply_updates", "bind_rib", "supports_incremental",
                 "update_engine"):
        assert hasattr(LookupStructure, name), GUIDANCE


def test_update_stream_config_is_typed_and_frozen():
    """UpdateStream follows the StructureConfig contract: frozen fields,
    TypeError on unknown keys, resolve() merging."""
    import dataclasses

    import pytest

    from repro.data import updates
    from repro.lookup.base import StructureConfig

    assert issubclass(updates.UpdateStream, StructureConfig)
    stream = updates.UpdateStream(count=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        stream.count = 6
    with pytest.raises(TypeError):
        updates.UpdateStream.resolve(None, {"definitely_not_a_knob": 1})
    assert updates.UpdateStream.resolve(stream, {}) is stream


def test_lookup_package_exports():
    from repro import lookup

    for name in ("LookupStructure", "StructureConfig", "NoOptions",
                 "registry"):
        assert name in lookup.__all__, GUIDANCE
