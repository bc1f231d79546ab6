"""Tests for the observability layer (repro.obs + its integrations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.lookup.radix import RadixLookup
from repro.mem.buddy import BuddyAllocator
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.tracing import clear_spans, recent_spans, span

from tests.conftest import make_random_rib


@pytest.fixture(autouse=True)
def obs_disabled():
    """Every test starts and ends with observability off."""
    obs.disable()
    clear_spans()
    yield
    obs.disable()
    clear_spans()


class TestMetricsPrimitives:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "help")
        c.inc()
        c.inc(4)
        assert c.value == 5
        # Same (name, labels) -> same instrument.
        assert reg.counter("x_total") is c

    def test_labels_split_children(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", structure="A")
        b = reg.counter("x_total", structure="B")
        assert a is not b
        a.inc()
        snap = reg.snapshot()
        assert snap['x_total{structure="A"}'] == 1
        assert snap['x_total{structure="B"}'] == 0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.inc(2.5)
        g.dec()
        assert g.value == 11.5

    def test_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("d", buckets=DEPTH_BUCKETS)
        for v in (0, 0, 3, 7, 100):
            h.observe(v)
        cumulative = dict(h.cumulative())
        assert cumulative[0] == 2
        assert cumulative[3] == 3
        assert cumulative[8] == 4
        assert cumulative[float("inf")] == 5
        assert h.count == 5 and h.sum == 110
        assert h.percentile(50) == 3
        # Tail bucket reports the largest finite bound.
        assert h.percentile(100) == DEPTH_BUCKETS[-1]

    def test_render_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "A thing.", structure="X").inc(2)
        reg.histogram("h", "H.", buckets=(1, 2)).observe(1.5)
        text = reg.render()
        assert "# HELP a_total A thing." in text
        assert "# TYPE a_total counter" in text
        assert 'a_total{structure="X"} 2' in text
        assert 'h_bucket{le="2"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 1.5" in text
        assert "h_count 1" in text

    def test_null_registry_is_free(self):
        NULL_REGISTRY.counter("x").inc()
        NULL_REGISTRY.gauge("y").set(3)
        NULL_REGISTRY.histogram("z").observe(1)
        assert NULL_REGISTRY.render() == ""
        assert NULL_REGISTRY.snapshot() == {}
        assert len(NULL_REGISTRY) == 0


class TestEnableDisable:
    def test_toggle(self):
        assert not obs.enabled()
        live = obs.enable()
        assert obs.enabled() and obs.registry() is live
        # Idempotent: re-enabling keeps the registry (and its state).
        live.counter("kept_total").inc()
        assert obs.enable() is live
        obs.disable()
        assert not obs.enabled()
        assert obs.registry() is NULL_REGISTRY

    def test_enable_with_explicit_target(self):
        mine = MetricsRegistry()
        assert obs.enable(mine) is mine
        assert obs.registry() is mine


class TestLookupInstrumentation:
    @pytest.fixture(scope="class")
    def rib(self):
        return make_random_rib(300, seed=3)

    def test_disabled_path_is_untouched(self, rib):
        """The compile-out guarantee: while obs is off, the structure's
        scalar path is the plain class method and nothing mutates any
        registry state."""
        structure = RadixLookup.from_rib(rib)
        assert "lookup" not in structure.__dict__
        assert "lookup_batch" not in structure.__dict__
        structure.lookup(0x0A000001)
        structure.lookup_batch(np.array([1, 2], dtype=np.uint64))
        assert "lookup" not in structure.__dict__
        assert len(obs.registry()) == 0
        assert obs.registry().render() == ""

    def test_enable_obs_counts(self, rib):
        reg = obs.enable()
        structure = RadixLookup.from_rib(rib)
        structure.enable_obs()
        for key in (0, 0xFFFFFFFF, 0x0A000001):
            structure.lookup(key)
        structure.lookup_batch(np.arange(10, dtype=np.uint64))
        snap = reg.snapshot()
        assert snap['repro_lookups_total{structure="Radix"}'] == 3
        assert snap['repro_lookup_batches_total{structure="Radix"}'] == 1
        assert snap['repro_lookup_batch_keys_total{structure="Radix"}'] == 10
        stats = structure.stats()
        assert stats["observed"] and stats["lookups"] == 3
        assert stats["batch_keys"] == 10

    def test_depth_histogram_for_poptrie(self, rib):
        from repro.core.poptrie import Poptrie, PoptrieConfig

        reg = obs.enable()
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        trie.enable_obs()
        for key in range(0, 1 << 32, 1 << 27):
            trie.lookup(key)
        families = {f.name for f in reg.families()}
        assert "repro_lookup_depth" in families
        assert "repro_lookup_direct_hits_total" in families
        hist = reg.histogram(
            "repro_lookup_depth", buckets=DEPTH_BUCKETS, structure=trie.name
        )
        assert hist.count == 32

    def test_disable_obs_restores_class_method(self, rib):
        obs.enable()
        structure = RadixLookup.from_rib(rib)
        structure.enable_obs()
        assert "lookup" in structure.__dict__
        structure.disable_obs()
        assert "lookup" not in structure.__dict__
        assert structure._obs_registry is None

    def test_getstate_drops_wrappers(self, rib):
        import pickle

        obs.enable()
        structure = RadixLookup.from_rib(rib)
        structure.enable_obs()
        clone = pickle.loads(pickle.dumps(structure))
        assert "lookup" not in clone.__dict__
        assert clone.lookup(0x0A000001) == structure.lookup(0x0A000001)

    def test_stats_schema_is_stable(self, rib):
        """The base stats() keys every consumer may rely on."""
        base_keys = {
            "name", "type", "memory_bytes", "memory_mib",
            "observed", "lookups", "batch_keys",
        }
        from repro.lookup.registry import standard_roster

        for structure in standard_roster(rib).values():
            stats = structure.stats()
            assert base_keys <= set(stats), structure.name
            assert stats["observed"] is False


class TestTracing:
    def test_spans_record_when_enabled(self):
        reg = obs.enable()
        with span("outer"):
            with span("inner"):
                pass
        records = recent_spans()
        names = [r.name for r in records]
        assert names == ["inner", "outer"]  # completion order
        inner = records[0]
        assert inner.parent == "outer" and inner.depth == 1
        hist = reg.histogram("repro_span_seconds", span="outer")
        assert hist.count == 1

    def test_spans_free_when_disabled(self):
        with span("ignored"):
            pass
        assert recent_spans() == []

    def test_recent_spans_filter(self):
        obs.enable()
        with span("a"):
            pass
        with span("b"):
            pass
        assert [r.name for r in recent_spans("a")] == ["a"]


class TestAllocatorObs:
    def test_stats_and_fragmentation(self):
        alloc = BuddyAllocator(capacity=16, auto_grow=False)
        a = alloc.alloc(4)
        b = alloc.alloc(4)
        alloc.free(a)
        stats = alloc.stats()
        assert stats["used_slots"] == 4
        assert stats["high_water"] == 8
        assert stats["largest_free_block"] == 8
        # 12 free slots, largest block 8 -> 1/3 fragmented.
        assert stats["fragmentation"] == pytest.approx(1 / 3)
        alloc.free(b)
        assert alloc.fragmentation() == 0.0

    def test_high_water_survives_snapshot_restore(self):
        alloc = BuddyAllocator(capacity=16)
        alloc.free(alloc.alloc(8))
        snap = alloc.snapshot()
        alloc.alloc(4)
        alloc.restore(snap)
        assert alloc.high_water == 8

    def test_publish_obs_exports_gauges(self):
        reg = obs.enable()
        alloc = BuddyAllocator(capacity=16)
        alloc.alloc(4)
        alloc.publish_obs("test.pool", slot_bytes=8)
        snap = reg.snapshot()
        assert snap['repro_allocator_used_slots{pool="test.pool"}'] == 4
        assert snap['repro_allocator_live_bytes{pool="test.pool"}'] == 32

    def test_publish_obs_noop_when_disabled(self):
        BuddyAllocator(capacity=16).publish_obs("test.pool")
        assert obs.registry().render() == ""


class TestUpdateAndTxnObs:
    def test_txn_outcomes_counted(self):
        from repro.errors import UpdateRejectedError
        from repro.net.prefix import Prefix
        from repro.robust.txn import TransactionalPoptrie

        reg = obs.enable()
        up = TransactionalPoptrie()
        up.announce(Prefix.parse("10.0.0.0/8"), 1)
        with pytest.raises(UpdateRejectedError):
            up.withdraw(Prefix.parse("172.16.0.0/12"))  # absent prefix
        snap = reg.snapshot()
        assert snap['repro_txn_outcomes_total{outcome="commit"}'] == 1
        assert snap['repro_txn_outcomes_total{outcome="rejected"}'] == 1
        assert snap['repro_updates_total{engine="incremental"}'] == 1

    def test_degraded_rebuild_keeps_instrumentation(self):
        from repro.net.prefix import Prefix
        from repro.robust.txn import TransactionalPoptrie

        reg = obs.enable()
        up = TransactionalPoptrie()
        up.trie.enable_obs()
        # The first subtree is a patch larger than the empty trie, so
        # the update is serviced by a rebuild.
        up.announce(Prefix.parse("10.0.0.0/24"), 1)
        assert up.trie._obs_registry is reg  # survived the trie swap
        snap = reg.snapshot()
        assert snap['repro_txn_outcomes_total{outcome="threshold_rebuild"}'] == 1
        assert snap['repro_updates_total{engine="rebuild"}'] == 1


class TestPipelineObs:
    def test_run_publishes_metrics(self):
        from repro.data.synth import generate_table
        from repro.lookup.registry import get
        from repro.router.pipeline import ForwardingPipeline

        rib, fib = generate_table(n_prefixes=300, n_nexthops=8, seed=11)
        structure = get("Poptrie16").from_rib(rib)
        reg = obs.enable()
        pipeline = ForwardingPipeline(structure, fib, batch_size=16)
        destinations = list(range(0, 1 << 30, 1 << 21))
        pipeline.run(destinations)
        snap = reg.snapshot()
        assert snap["repro_pipeline_packets_total"] == len(destinations)
        assert snap["repro_pipeline_batch_size"] == 16
        hist = reg.histogram("repro_pipeline_latency_us")
        assert hist.count == len(destinations)
        stats = pipeline.stats()
        assert stats["forwarded"] + stats["no_route_drops"] == len(destinations)
        assert [r.name for r in recent_spans("pipeline.run")] == ["pipeline.run"]

    def test_run_reports_same_without_obs(self):
        from repro.data.synth import generate_table
        from repro.lookup.registry import get
        from repro.router.pipeline import ForwardingPipeline

        rib, fib = generate_table(n_prefixes=300, n_nexthops=8, seed=11)
        structure = get("Poptrie16").from_rib(rib)
        destinations = list(range(0, 1 << 30, 1 << 21))
        silent = ForwardingPipeline(structure, fib, batch_size=16)
        report = silent.run(destinations)
        obs.enable()
        observed = ForwardingPipeline(structure, fib, batch_size=16)
        assert observed.run(destinations) == report
        assert obs.registry().render() != ""
