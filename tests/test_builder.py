"""Unit tests for the Poptrie builder (expansion + serialization)."""

from repro.core import builder
from repro.net.prefix import Prefix
from repro.net.rib import ROOT, Rib
from repro.net.values import NO_ROUTE


def rib_of(*routes, width=8):
    rib = Rib(width=width)
    for bits, hop in routes:
        rib.insert(Prefix.from_bits(bits, width), hop)
    return rib


class TestExpandChunk:
    def test_empty_tree_is_all_inherited(self):
        rib = Rib(width=8)
        slots = builder.expand_chunk(rib, ROOT, 7, k=2)
        assert slots == [7, 7, 7, 7]

    def test_route_at_chunk_boundary_covers_all(self):
        rib = rib_of(("", 5))
        slots = builder.expand_chunk(rib, ROOT, NO_ROUTE, k=2)
        assert slots == [5, 5, 5, 5]

    def test_one_bit_route_covers_half(self):
        rib = rib_of(("1", 3))
        slots = builder.expand_chunk(rib, ROOT, 9, k=2)
        assert slots == [9, 9, 3, 3]

    def test_exact_length_route(self):
        rib = rib_of(("01", 4))
        slots = builder.expand_chunk(rib, ROOT, NO_ROUTE, k=2)
        assert slots == [NO_ROUTE, 4, NO_ROUTE, NO_ROUTE]

    def test_deeper_route_creates_internal_slot(self):
        rib = rib_of(("011", 4))
        slots = builder.expand_chunk(rib, ROOT, NO_ROUTE, k=2)
        assert isinstance(slots[1], tuple)  # slot 01 has a subtree
        node, inherited = slots[1]
        assert inherited == NO_ROUTE

    def test_internal_slot_inherits_path_route(self):
        rib = rib_of(("0", 8), ("011", 4))
        slots = builder.expand_chunk(rib, ROOT, NO_ROUTE, k=2)
        node, inherited = slots[1]
        assert inherited == 8  # the /1 route covers the subtree

    def test_chunk_boundary_route_inherits_into_child(self):
        rib = rib_of(("01", 6), ("0111", 4))
        slots = builder.expand_chunk(rib, ROOT, NO_ROUTE, k=2)
        node, inherited = slots[1]
        assert inherited == 6  # the route exactly at the boundary


class TestMakeShallow:
    def test_vector_bits(self):
        rib = rib_of(("011", 4), ("111", 5))
        slots = builder.expand_chunk(rib, ROOT, NO_ROUTE, k=2)
        tmp = builder.make_shallow(slots, use_leafvec=True)
        assert tmp.vector == 0b1010  # slots 1 and 3 internal

    def test_leafvec_first_leaf_always_marked(self):
        slots = [7, 7, 7, 7]
        tmp = builder.make_shallow(slots, use_leafvec=True)
        assert tmp.leafvec == 0b0001
        assert tmp.leaves == [7]

    def test_leafvec_marks_value_changes(self):
        slots = [7, 7, 9, 9]
        tmp = builder.make_shallow(slots, use_leafvec=True)
        assert tmp.leafvec == 0b0101
        assert tmp.leaves == [7, 9]

    def test_leafvec_hole_punching_continues_run(self):
        """Section 3.3: a leaf slot shadowed by an internal node is
        irrelevant; an identical-value run continues across it."""
        slots = [7, ("fake-node", NO_ROUTE), 7, 7]
        tmp = builder.make_shallow(slots, use_leafvec=True)
        assert tmp.leafvec == 0b0001  # single run despite the hole
        assert tmp.leaves == [7]

    def test_leafvec_first_leaf_after_internal_slots(self):
        slots = [("n", 0), ("n", 0), 5, 5]
        tmp = builder.make_shallow(slots, use_leafvec=True)
        assert tmp.leafvec == 0b0100
        assert tmp.leaves == [5]

    def test_basic_mode_materialises_every_leaf(self):
        slots = [7, 7, 9, 9]
        tmp = builder.make_shallow(slots, use_leafvec=False)
        assert tmp.leaves == [7, 7, 9, 9]
        assert tmp.leafvec == 0

    def test_all_internal_has_no_leaves(self):
        slots = [("n", 0)] * 4
        tmp = builder.make_shallow(slots, use_leafvec=True)
        assert tmp.vector == 0b1111
        assert tmp.leaves == []


class TestExpandNode:
    def test_counts(self):
        rib = rib_of(("01", 1), ("0111", 2), ("10", 3))
        tmp = builder.expand_node(rib, ROOT, NO_ROUTE, k=2, use_leafvec=True)
        inodes, leaves = tmp.count_nodes()
        assert inodes == 2  # root + the subtree under slot 01
        assert leaves >= 3

    def test_shallow_signature_changes_with_structure(self):
        rib1 = rib_of(("01", 1))
        rib2 = rib_of(("011", 1))
        t1 = builder.expand_node(rib1, ROOT, NO_ROUTE, 2, True)
        t2 = builder.expand_node(rib2, ROOT, NO_ROUTE, 2, True)
        assert t1.shallow_signature() != t2.shallow_signature()


class _ArrayTarget:
    """Minimal serialization target standing in for a Poptrie."""

    def __init__(self):
        self.nodes = {}
        self.leaves = {}
        self._next_node = 0
        self._next_leaf = 0

    def alloc_nodes(self, count):
        base = self._next_node
        self._next_node += count
        return base

    def alloc_leaves(self, count):
        base = self._next_leaf
        self._next_leaf += count
        return base

    def write_node(self, index, vector, leafvec, base0, base1):
        self.nodes[index] = (vector, leafvec, base0, base1)

    def write_leaf(self, index, value):
        self.leaves[index] = value


class TestSerializer:
    def test_children_are_contiguous(self):
        rib = rib_of(("000001", 1), ("010001", 2), ("100001", 3), ("110001", 4))
        tmp = builder.expand_node(rib, ROOT, NO_ROUTE, k=2, use_leafvec=True)
        target = _ArrayTarget()
        root = builder.Serializer(target).serialize(tmp)
        vector, _, _, base1 = target.nodes[root]
        count = bin(vector).count("1")
        assert count == 4
        for i in range(count):
            assert base1 + i in target.nodes

    def test_leaves_are_contiguous_and_written(self):
        rib = rib_of(("00", 1), ("01", 2))
        tmp = builder.expand_node(rib, ROOT, NO_ROUTE, k=2, use_leafvec=True)
        target = _ArrayTarget()
        root = builder.Serializer(target).serialize(tmp)
        _, leafvec, base0, _ = target.nodes[root]
        count = bin(leafvec).count("1")
        values = [target.leaves[base0 + i] for i in range(count)]
        assert values[0] == 1 and 2 in values

    def test_written_counters(self):
        rib = rib_of(("0101", 1),)
        tmp = builder.expand_node(rib, ROOT, NO_ROUTE, k=2, use_leafvec=True)
        target = _ArrayTarget()
        serializer = builder.Serializer(target)
        serializer.serialize(tmp)
        inodes, leaves = tmp.count_nodes()
        assert serializer.nodes_written == inodes
        assert serializer.leaves_written == leaves
