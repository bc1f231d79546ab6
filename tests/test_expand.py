"""Tests for the SYN1/SYN2 table expansions."""

from repro.data.expand import expand_syn1, expand_syn2
from repro.net.prefix import Prefix
from repro.net.rib import Rib


def rib_of(*routes):
    rib = Rib()
    for text, hop in routes:
        rib.insert(Prefix.parse(text), hop)
    return rib


class TestSyn1:
    def test_short_prefix_splits_four_ways(self):
        rib = rib_of(("10.0.0.0/16", 5))
        out = expand_syn1(rib, fraction=1.0)
        routes = list(out.routes())
        assert len(routes) == 4
        assert all(p.length == 18 for p, _ in routes)

    def test_medium_prefix_splits_two_ways(self):
        rib = rib_of(("10.0.0.0/20", 5))
        out = expand_syn1(rib, fraction=1.0)
        assert [p.length for p, _ in out.routes()] == [21, 21]

    def test_slash24_not_deepened(self):
        rib = rib_of(("10.0.0.0/24", 5))
        out = expand_syn1(rib, fraction=1.0)
        assert all(p.length <= 24 for p, _ in out.routes())

    def test_igp_routes_pass_through(self):
        rib = rib_of(("10.0.0.1/32", 5))
        out = expand_syn1(rib, fraction=1.0)
        assert list(out.routes()) == [(Prefix.parse("10.0.0.1/32"), 5)]

    def test_fraction_zero_is_identity(self):
        rib = rib_of(("10.0.0.0/16", 5), ("10.1.0.0/20", 6))
        out = expand_syn1(rib, fraction=0.0)
        assert list(out.routes()) == list(rib.routes())

    def test_systematic_nexthop_striding(self):
        rib = rib_of(("10.0.0.0/16", 2), ("192.0.2.0/24", 7))
        out = expand_syn1(rib, fraction=1.0)
        stride = 7  # the original table's max next hop
        hops = sorted(hop for p, hop in out.routes() if p.length == 18)
        assert hops == [2, 2 + stride, 2 + 2 * stride, 2 + 3 * stride]

    def test_split_pieces_never_displace_originals(self):
        # The /24 is not split by SYN1; the /16's pieces must not touch it.
        rib = rib_of(("10.0.0.0/16", 2), ("10.0.0.0/24", 9))
        out = expand_syn1(rib, fraction=1.0)
        assert out.get(Prefix.parse("10.0.0.0/24")) == 9

    def test_colliding_pieces_are_skipped(self):
        # /16 → four /18 pieces, /17 → two /18 pieces that land on taken
        # slots and are skipped: 4 + 0 routes at /18.
        rib = rib_of(("10.0.0.0/16", 2), ("10.0.0.0/17", 3))
        out = expand_syn1(rib, fraction=1.0)
        assert sum(1 for p, _ in out.routes() if p.length == 18) == 4

    def test_deterministic(self):
        rib = rib_of(*((f"10.{i}.0.0/16", i + 1) for i in range(50)))
        assert list(expand_syn1(rib).routes()) == list(expand_syn1(rib).routes())


class TestSyn2:
    def test_short_prefix_splits_eight_ways(self):
        rib = rib_of(("10.0.0.0/16", 5))
        out = expand_syn2(rib, fraction=1.0)
        assert [p.length for p, _ in out.routes()] == [19] * 8

    def test_17_to_20_splits_four_ways(self):
        rib = rib_of(("10.0.0.0/18", 5))
        out = expand_syn2(rib, fraction=1.0)
        assert [p.length for p, _ in out.routes()] == [20] * 4

    def test_slash24_becomes_25s(self):
        """The split that breaks SAIL and unmodified DXR (Section 4.8)."""
        rib = rib_of(("10.0.0.0/24", 5))
        out = expand_syn2(rib, fraction=1.0)
        assert [p.length for p, _ in out.routes()] == [25, 25]

    def test_splits_cap_at_address_width(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/16"), 1)
        out = expand_syn2(rib, fraction=1.0)
        assert all(p.length <= 32 for p, _ in out.routes())

    def test_larger_than_syn1(self):
        rib = rib_of(*((f"10.{i}.0.0/16", i + 1) for i in range(64)))
        assert len(expand_syn2(rib, fraction=1.0)) > len(
            expand_syn1(rib, fraction=1.0)
        )


class TestSemantics:
    def test_coverage_is_preserved(self):
        """Splitting changes next hops but never uncovers addresses."""
        from repro.net.values import NO_ROUTE
        import random

        rib = rib_of(("10.0.0.0/16", 1), ("10.0.128.0/17", 2), ("11.0.0.0/8", 3))
        out = expand_syn2(rib, fraction=1.0)
        rng = random.Random(5)
        for _ in range(2000):
            address = rng.getrandbits(32)
            assert (rib.lookup(address) == NO_ROUTE) == (
                out.lookup(address) == NO_ROUTE
            )
