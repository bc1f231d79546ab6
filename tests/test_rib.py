"""Unit tests for the radix-tree RIB."""

import gc
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_random_rib, naive_lpm, random_keys

from repro.data import tableio
from repro.net.prefix import Prefix
from repro.net.rib import ROOT, Rib, rib_from_routes
from repro.net.values import NO_ROUTE


def addr(text: str) -> int:
    return Prefix.parse(text + "/32").value


class TestInsertLookup:
    def test_empty_lookup_misses(self):
        assert Rib().lookup(addr("10.0.0.1")) == NO_ROUTE

    def test_single_route(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        assert rib.lookup(addr("10.255.255.255")) == 1
        assert rib.lookup(addr("11.0.0.0")) == NO_ROUTE

    def test_longest_match_wins(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        rib.insert(Prefix.parse("10.1.0.0/16"), 2)
        assert rib.lookup(addr("10.1.2.3")) == 2
        assert rib.lookup(addr("10.2.2.3")) == 1

    def test_default_route(self):
        rib = Rib()
        rib.insert(Prefix.parse("0.0.0.0/0"), 9)
        assert rib.lookup(addr("203.0.113.1")) == 9

    def test_host_route(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.1/32"), 4)
        assert rib.lookup(addr("10.0.0.1")) == 4
        assert rib.lookup(addr("10.0.0.2")) == NO_ROUTE

    def test_insert_replaces_and_returns_previous(self):
        rib = Rib()
        p = Prefix.parse("10.0.0.0/8")
        assert rib.insert(p, 1) == NO_ROUTE
        assert rib.insert(p, 2) == 1
        assert len(rib) == 1
        assert rib.lookup(addr("10.0.0.1")) == 2

    def test_insert_rejects_sentinel(self):
        with pytest.raises(ValueError):
            Rib().insert(Prefix.parse("10.0.0.0/8"), NO_ROUTE)

    def test_insert_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            Rib(width=32).insert(Prefix.parse("2001:db8::/32"), 1)


class TestDelete:
    def test_delete_restores_shorter_match(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        rib.insert(Prefix.parse("10.1.0.0/16"), 2)
        rib.delete(Prefix.parse("10.1.0.0/16"))
        assert rib.lookup(addr("10.1.2.3")) == 1

    def test_delete_returns_previous(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 7)
        assert rib.delete(Prefix.parse("10.0.0.0/8")) == 7

    def test_delete_missing_raises(self):
        with pytest.raises(KeyError):
            Rib().delete(Prefix.parse("10.0.0.0/8"))

    def test_delete_interior_keeps_descendants(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        rib.insert(Prefix.parse("10.1.0.0/16"), 2)
        rib.delete(Prefix.parse("10.0.0.0/8"))
        assert rib.lookup(addr("10.1.2.3")) == 2
        assert rib.lookup(addr("10.2.0.0")) == NO_ROUTE

    def test_delete_prunes_nodes(self):
        rib = Rib()
        baseline = rib.node_count
        rib.insert(Prefix.parse("10.1.2.3/32"), 1)
        rib.delete(Prefix.parse("10.1.2.3/32"))
        assert rib.node_count == baseline

    def test_route_count_tracks(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        rib.insert(Prefix.parse("10.1.0.0/16"), 2)
        rib.delete(Prefix.parse("10.0.0.0/8"))
        assert len(rib) == 1


class TestExactGet:
    def test_get_hits_exact_only(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        assert rib.get(Prefix.parse("10.0.0.0/8")) == 1
        assert rib.get(Prefix.parse("10.0.0.0/9")) == NO_ROUTE
        assert rib.get(Prefix.parse("0.0.0.0/0")) == NO_ROUTE


class TestDepth:
    def test_depth_equals_length_without_holes(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        fib, matched, depth = rib.lookup_with_depth(addr("10.9.9.9"))
        assert (fib, matched, depth) == (1, 8, 8)

    def test_hole_punching_deepens_search(self):
        # Figure 7's phenomenon: deciding that only the /8 matches requires
        # walking to where the /24 hole diverges.
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        rib.insert(Prefix.parse("10.0.0.0/24"), 2)
        fib, matched, depth = rib.lookup_with_depth(addr("10.0.1.1"))
        assert fib == 1 and matched == 8
        assert depth > 8  # had to look past /8 to rule the /24 out

    def test_depth_zero_on_miss_at_root(self):
        fib, matched, depth = Rib().lookup_with_depth(addr("10.0.0.1"))
        assert (fib, matched, depth) == (NO_ROUTE, 0, 0)


class TestWalking:
    def test_routes_yields_lexicographic(self, small_rib):
        routes = [p.text for p, _ in small_rib.routes()]
        assert routes == sorted(
            routes, key=lambda t: Prefix.parse(t).sort_key()
        )

    def test_routes_roundtrip(self, small_rib):
        rebuilt = Rib()
        for prefix, hop in small_rib.routes():
            rebuilt.insert(prefix, hop)
        for key in random_keys(2000, seed=3):
            assert rebuilt.lookup(key) == small_rib.lookup(key)

    def test_node_at(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        assert rib.node_at(Prefix.parse("10.0.0.0/8")) is not None
        assert rib.node_at(Prefix.parse("11.0.0.0/8")) is None

    def test_best_route_on_path(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        rib.insert(Prefix.parse("10.0.0.0/16"), 2)
        assert rib.best_route_on_path(Prefix.parse("10.0.0.0/24")) == 2
        assert rib.best_route_on_path(Prefix.parse("10.1.0.0/16")) == 1


def _bit_walk(rib, node, inherited, value, bits):
    """Reference descent: one column read per bit, MSB first."""
    for i in range(bits):
        if node is None:
            break
        if rib.route[node] != NO_ROUTE:
            inherited = rib.route[node]
        bit = (value >> (bits - 1 - i)) & 1
        node = (rib.right if bit else rib.left)[node] or None
    return node, inherited


def _is_leaf(rib, node):
    return not (rib.left[node] or rib.right[node])


class TestExpand:
    """``Rib.expand`` (controlled prefix expansion) and ``Rib.descend``
    (one key's path), the two walks every stride-based builder shares."""

    @staticmethod
    def _check_runs(rib, node, inherited, stride):
        runs = list(rib.expand(node, inherited, stride))
        at = 0
        for base, span, next_hop, subtree in runs:
            # Ascending and contiguous, in slot order.
            assert base == at and span >= 1
            at += span
            # The run carries the best route on its slot's path, and a
            # subtree exactly where that path ends on a node with
            # children at depth ``stride``.
            reached, hop = rib.descend(node, inherited, base, stride)
            if reached is not None and rib.route[reached] != NO_ROUTE:
                hop = rib.route[reached]
            assert next_hop == hop
            if subtree is not None:
                assert span == 1 and subtree == reached
                assert not _is_leaf(rib, subtree)
            else:
                assert reached is None or _is_leaf(rib, reached)
        assert at == 1 << stride
        return runs

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.sampled_from([32, 128]),
        n_routes=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=1_000_000),
        stride=st.one_of(st.integers(min_value=0, max_value=8), st.just(None)),
        inherited=st.integers(min_value=0, max_value=50),
    )
    def test_runs_cover_the_chunk_once(
        self, width, n_routes, seed, stride, inherited
    ):
        rib = make_random_rib(n_routes, seed=seed, width=width)
        if stride is None:
            # The wide strides builders use: DIR-24-8's first level, and
            # a D16R chunk's remaining bits on IPv6.
            stride = 24 if width == 32 else 112
        # From the root, every run without a subtree answers the LPM of
        # its first address.
        for base, _, next_hop, subtree in self._check_runs(
            rib, ROOT, NO_ROUTE, stride
        ):
            if subtree is None:
                assert next_hop == rib.lookup(base << (width - stride))
        # From interior nodes on a route's path, with any inherited hop.
        rng = random.Random(seed)
        routes = [prefix for prefix, _ in rib.routes()]
        for prefix in rng.sample(routes, min(len(routes), 4)):
            depth = rng.randint(0, min(prefix.length, width - stride))
            node, _ = rib.descend(
                ROOT, NO_ROUTE, prefix.value >> (width - depth), depth
            )
            self._check_runs(rib, node, inherited, stride)

    def test_missing_and_childless_nodes_are_one_run(self):
        rib = Rib()
        assert list(rib.expand(None, 7, 6)) == [(0, 64, 7, None)]
        rib.insert(Prefix.parse("10.0.0.0/8"), 3)
        node = rib.node_at(Prefix.parse("10.0.0.0/8"))
        assert list(rib.expand(node, 1, 4)) == [(0, 16, 3, None)]
        assert list(rib.expand(ROOT, NO_ROUTE, 0)) == [(0, 1, 0, ROOT)]

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.sampled_from([32, 128]),
        seed=st.integers(min_value=0, max_value=1_000_000),
        inherited=st.integers(min_value=0, max_value=50),
    )
    def test_descend_agrees_with_a_bit_walk(self, width, seed, inherited):
        rib = make_random_rib(40, seed=seed, width=width)
        rng = random.Random(seed)
        routes = [prefix for prefix, _ in rib.routes()]
        for _ in range(20):
            # Mostly along a route's path, sometimes off every path.
            if rng.random() < 0.7:
                prefix = rng.choice(routes)
                bits = rng.randint(0, prefix.length)
                value = prefix.value >> (width - bits)
            else:
                bits = rng.randint(0, width)
                value = rng.getrandbits(bits) if bits else 0
            assert rib.descend(ROOT, inherited, value, bits) == _bit_walk(
                rib, ROOT, inherited, value, bits
            )


class TestBulkBuild:
    """``load_sorted`` / ``route_columns`` / ``max_fib_index`` against the
    per-route ``insert`` / ``routes`` they stand in for."""

    def _columns(self, rib):
        routes = list(rib.routes())
        return (
            [p.value for p, _ in routes],
            [p.length for p, _ in routes],
            [index for _, index in routes],
        )

    @pytest.mark.parametrize("width", [32, 128])
    def test_load_sorted_equals_insert(self, width):
        rib = make_random_rib(300, seed=61, width=width)
        rib.insert(Prefix(0, 0, width), 3)
        rib.insert(Prefix((1 << width) - 1, width, width), 4)
        bulk = Rib(width=width)
        bulk.load_sorted(*self._columns(rib))
        assert list(bulk.routes()) == list(rib.routes())
        assert len(bulk) == len(rib)
        assert bulk.node_count == rib.node_count

    def test_route_columns_match_routes(self):
        for width in (32, 128):
            rib = make_random_rib(200, seed=62, width=width)
            hi, lo, lengths, fib_indices = rib.route_columns()
            assert [c.dtype for c in (hi, lo, lengths, fib_indices)] == [
                np.uint64, np.uint64, np.uint8, np.uint32
            ]
            values = [(h << 64) | v for h, v in zip(hi.tolist(), lo.tolist())]
            assert (values, lengths.tolist(), fib_indices.tolist()) == (
                self._columns(rib)
            )
        assert [len(c) for c in Rib().route_columns()] == [0, 0, 0, 0]

    def test_max_fib_index(self):
        rib = make_random_rib(200, seed=63, max_nexthop=900)
        assert rib.max_fib_index() == max(i for _, i in rib.routes())
        assert Rib().max_fib_index() == NO_ROUTE

    @pytest.mark.parametrize(
        "texts",
        [
            ["10.0.0.0/8", "10.0.0.0/8"],  # duplicate
            ["10.1.0.0/16", "10.0.0.0/8"],  # ancestor after descendant
            ["10.0.0.0/8", "0.0.0.0/0"],  # default route not first
            # back into a subtree an earlier route already built
            ["10.1.0.0/16", "10.0.0.0/16", "10.1.2.0/24"],
        ],
    )
    def test_load_sorted_rejects_rows_landing_on_built_nodes(self, texts):
        prefixes = [Prefix.parse(t) for t in texts]
        rib = Rib()
        with pytest.raises(ValueError, match="out of preorder"):
            rib.load_sorted(
                [p.value for p in prefixes],
                [p.length for p in prefixes],
                [1] * len(prefixes),
            )
        # The routes before the bad one stay loaded and counted.
        good = sorted(prefixes[:-1])
        assert [p for p, _ in rib.routes()] == good
        assert len(rib) == len(good)
        assert rib.node_count == rib_from_routes(
            [(p, 1) for p in good]
        ).node_count

    def test_load_sorted_builds_any_order_it_accepts(self):
        prefixes = [Prefix.parse(t) for t in ("10.1.0.0/16", "10.0.0.0/16")]
        rib = Rib()
        rib.load_sorted(
            [p.value for p in prefixes], [p.length for p in prefixes], [1, 2]
        )
        assert rib.node_count == rib_from_routes(
            zip(prefixes, [1, 2])
        ).node_count
        assert rib.get(prefixes[0]) == 1 and rib.get(prefixes[1]) == 2

    def test_load_sorted_needs_an_empty_rib(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        with pytest.raises(ValueError, match="empty"):
            rib.load_sorted([], [], [])


def _path_prefixes(prefixes, width):
    """Every ``(value, depth)`` on the path to some prefix: the nodes a
    pruned radix tree holds."""
    nodes = {(0, 0)}
    for prefix in prefixes:
        for depth in range(1, prefix.length + 1):
            nodes.add((prefix.value >> (width - depth), depth))
    return nodes


class TestColumns:
    """The node columns against a dict model of the routes."""

    @staticmethod
    def _random_updates(rib, rng, steps, max_fib, check=None):
        """Insert/delete ``steps`` random routes on ``rib`` and a dict
        model; prefixes share a few stems, so deletes prune shared paths
        and inserts reuse freed ids.  Returns the model and the peak live
        node count."""
        width = rib.width
        stems = [rng.getrandbits(width) for _ in range(3)]
        model, peak = {}, rib.node_count
        for _ in range(steps):
            if model and rng.random() < 0.45:
                prefix = rng.choice(list(model))
                assert rib.delete(prefix) == model.pop(prefix)
            else:
                length = rng.choice([0, 1, 2, 5, 9, width // 2, width - 1, width])
                mask = ((1 << length) - 1) << (width - length)
                prefix = Prefix(rng.choice(stems) & mask, length, width)
                fib_index = rng.randint(1, max_fib)
                assert rib.insert(prefix, fib_index) == model.get(prefix, NO_ROUTE)
                model[prefix] = fib_index
            peak = max(peak, rib.node_count)
            if check is not None:
                check(rib)
        return model, peak

    @settings(max_examples=30, deadline=None)
    @given(
        width=st.sampled_from([32, 128]),
        seed=st.integers(min_value=0, max_value=1_000_000),
        steps=st.integers(min_value=1, max_value=120),
    )
    def test_random_updates_match_a_dict_model(self, width, seed, steps):
        rng = random.Random(seed)
        rib = Rib(width=width)
        model, peak = self._random_updates(rib, rng, steps, max_fib=40)
        assert len(rib) == len(model)
        assert list(rib.routes()) == sorted(model.items())
        for prefix, fib_index in model.items():
            assert rib.get(prefix) == fib_index
        routes = sorted(model.items())
        keys = [p.value for p in model] + [rng.getrandbits(width) for _ in range(50)]
        for key in keys:
            assert rib.lookup(key) == naive_lpm(routes, key)
        # Pruning keeps exactly the nodes on some route's path, and
        # freed ids are reused before the columns grow.
        assert rib.node_count == len(_path_prefixes(model, width))
        assert len(rib.left) == len(rib.right) == len(rib.route) <= peak
        # A bulk load of the same routes builds the same tree.
        columns = (
            [p.value for p, _ in routes],
            [p.length for p, _ in routes],
            [fib_index for _, fib_index in routes],
        )
        bulk = Rib(width=width)
        bulk.load_sorted(*columns)
        assert list(bulk.routes()) == list(rib.routes())
        assert bulk.node_count == rib.node_count
        # An emptied RIB loads afresh, dropping the ids it freed.
        for prefix in model:
            rib.delete(prefix)
        rib.load_sorted(*columns)
        assert list(rib.routes()) == routes
        assert rib.node_count == len(rib.left) == bulk.node_count
        assert rib.max_fib_index() == bulk.max_fib_index()

    @settings(max_examples=30, deadline=None)
    @given(
        width=st.sampled_from([32, 128]),
        seed=st.integers(min_value=0, max_value=1_000_000),
    )
    def test_max_fib_index_tracks_updates(self, width, seed):
        def check(rib):
            assert rib.max_fib_index() == max(
                (f for _, f in rib.routes()), default=NO_ROUTE
            )

        self._random_updates(
            Rib(width=width), random.Random(seed), 80, max_fib=6, check=check
        )

    def test_a_loaded_image_holds_no_per_node_objects(self, tmp_path):
        path = str(tmp_path / "rib.img")
        tableio.save_table_image(make_random_rib(50_000, seed=64), path)
        gc.collect()
        before = len(gc.get_objects())
        rib = tableio.load_table(path)
        gc.collect()
        assert len(rib) == 50_000 and rib.node_count > 100_000
        assert len(gc.get_objects()) - before < 1_000


class TestMemory:
    def test_memory_grows_with_routes(self):
        rib = Rib()
        before = rib.memory_bytes()
        rib.insert(Prefix.parse("10.1.2.3/32"), 1)
        assert rib.memory_bytes() > before


class TestAgainstNaive:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_tables_match_linear_scan(self, seed):
        rib = make_random_rib(60, seed=seed, width=16)
        routes = list(rib.routes())
        for address in range(0, 1 << 16, 257):
            assert rib.lookup(address) == naive_lpm(routes, address)

    def test_exhaustive_small_width(self):
        rib = make_random_rib(40, seed=9, width=8)
        routes = list(rib.routes())
        for address in range(256):
            assert rib.lookup(address) == naive_lpm(routes, address)
