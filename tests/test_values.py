"""Unit tests for the generalized value plane (repro.net.values).

Covers the ValueTable contract (interning, the id-0 sentinel, capacity),
the per-kind codecs (segment and text round trips, validation), and the
structure-side plumbing: attach_values / lookup_value, value segments in
images, and the registry's ``values=`` build option.
"""

import numpy as np
import pytest

from repro.errors import SnapshotFormatError
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.net.values import (
    NO_ROUTE,
    NO_VALUE,
    VALUE_KINDS,
    Fib,
    NextHop,
    ValueTable,
    cc_to_u16,
    u16_to_cc,
    value_kind,
)


class TestSentinel:
    def test_no_value_is_no_route(self):
        assert NO_VALUE == NO_ROUTE == 0

    def test_getitem_rejects_sentinel(self):
        with pytest.raises(KeyError):
            ValueTable("u16")[NO_VALUE]

    def test_get_returns_none_for_sentinel(self):
        assert ValueTable("u16").get(NO_VALUE) is None


class TestValueTable:
    def test_intern_assigns_dense_one_based_ids(self):
        table = ValueTable("u32")
        assert (table.intern(7), table.intern(8), table.intern(7)) == (1, 2, 1)
        assert len(table) == 2

    def test_id_of(self):
        table = ValueTable("u16")
        index = table.intern(42)
        assert table.id_of(42) == index
        assert table.id_of(43) is None

    def test_iteration_is_id_order(self):
        table = ValueTable("cc")
        for code in ("JP", "US", "DE"):
            table.intern(code)
        assert list(table) == ["JP", "US", "DE"]

    def test_capacity_limit(self):
        table = ValueTable("u16", max_entries=1)
        table.intern(1)
        with pytest.raises(OverflowError):
            table.intern(2)

    def test_equality_is_kind_and_contents(self):
        a, b = ValueTable("u16"), ValueTable("u16")
        a.intern(5), b.intern(5)
        assert a == b
        b.intern(6)
        assert a != b
        c = ValueTable("u32")
        c.intern(5)
        assert a != c

    def test_tables_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(ValueTable("u16"))

    def test_describe(self):
        table = ValueTable("cc")
        table.intern("CN")
        assert table.describe() == {"kind": "cc", "count": 1}

    def test_unknown_kind_lists_known(self):
        with pytest.raises(ValueError, match="cc.*nexthop.*u16.*u32"):
            ValueTable("geohash")


class TestKindValidation:
    def test_u16_range(self):
        table = ValueTable("u16")
        table.intern(0xFFFF)
        with pytest.raises(ValueError):
            table.intern(0x10000)
        with pytest.raises(ValueError):
            table.intern(-1)

    def test_int_kinds_reject_bool_and_str(self):
        table = ValueTable("u32")
        with pytest.raises(TypeError):
            table.intern(True)
        with pytest.raises(TypeError):
            table.intern("7")

    def test_cc_normalizes_case(self):
        table = ValueTable("cc")
        assert table.intern("jp") == table.intern("JP")
        assert table[1] == "JP"

    def test_cc_rejects_non_codes(self):
        table = ValueTable("cc")
        for bad in ("J", "JPN", "J1", "日本"):
            with pytest.raises(ValueError):
                table.intern(bad)
        with pytest.raises(TypeError):
            table.intern(0x4A50)

    def test_nexthop_kind_rejects_plain_tuples(self):
        with pytest.raises(TypeError):
            Fib().intern(("10.0.0.1", 0))


class TestCountryCodec:
    def test_u16_encoding_is_swoiow(self):
        assert cc_to_u16("CN") == (ord("C") << 8) | ord("N")

    def test_round_trip_all_pairs(self):
        assert u16_to_cc(cc_to_u16("zz")) == "ZZ"

    def test_u16_to_cc_rejects_non_letters(self):
        with pytest.raises(ValueError):
            u16_to_cc(0x1234)


class TestSegmentRoundTrip:
    """to_segments / from_segments for every registered kind."""

    def _populate(self, kind):
        table = ValueTable(kind) if kind != "nexthop" else Fib()
        samples = {
            "u16": [7, 65_535, 0],
            "u32": [1, 2**32 - 1, 12_345],
            "cc": ["JP", "US", "CN"],
            "nexthop": [NextHop("10.0.0.1"), NextHop("192.0.2.9", 7),
                        NextHop("2001:db8::1", 3)],
        }[kind]
        for sample in samples:
            table.intern(sample)
        return table

    @pytest.mark.parametrize("kind", sorted(VALUE_KINDS))
    def test_round_trip(self, kind):
        table = self._populate(kind)
        meta, segments = table.to_segments()
        assert meta == {"kind": kind, "count": len(table)}
        for segment in segments.values():
            assert segment.dtype.kind == "u", "image segments are unsigned"
        rebuilt = ValueTable.from_segments(meta, segments)
        assert rebuilt == table

    def test_nexthop_rebuilds_as_fib(self):
        meta, segments = self._populate("nexthop").to_segments()
        assert isinstance(ValueTable.from_segments(meta, segments), Fib)

    def test_empty_table_round_trips(self):
        meta, segments = ValueTable("u16").to_segments()
        assert len(ValueTable.from_segments(meta, segments)) == 0

    def test_count_mismatch_raises(self):
        meta, segments = self._populate("u16").to_segments()
        meta = {**meta, "count": 99}
        with pytest.raises(SnapshotFormatError):
            ValueTable.from_segments(meta, segments)

    def test_unknown_kind_raises(self):
        with pytest.raises(SnapshotFormatError):
            ValueTable.from_segments(
                {"kind": "nope", "count": 0}, {"data": np.array([], np.uint16)}
            )

    def test_duplicate_entries_raise(self):
        segments = {"data": np.array([5, 5], dtype=np.uint16)}
        with pytest.raises(SnapshotFormatError):
            ValueTable.from_segments({"kind": "u16", "count": 2}, segments)


class TestTextCodecs:
    @pytest.mark.parametrize("kind,value", [
        ("u16", 65_535),
        ("u32", 2**32 - 1),
        ("cc", "JP"),
        ("nexthop", NextHop("10.0.0.1", 7)),
        ("nexthop", NextHop("2001:db8::1", 0)),
    ])
    def test_format_parse_round_trip(self, kind, value):
        codec = value_kind(kind)
        token = codec.format(value)
        assert " " not in token, "tokens must be single words"
        assert codec.parse(token) == value

    def test_nexthop_parse_rejects_portless_text(self):
        with pytest.raises(ValueError):
            value_kind("nexthop").parse("%7")


class TestStructureValuePlane:
    """attach_values / lookup_value / image travel on a real structure."""

    def _valued_structure(self):
        from repro.core.poptrie import Poptrie

        values = ValueTable("cc")
        rib = Rib(values=values)
        rib.insert(Prefix.parse("10.0.0.0/8"), values.intern("CN"))
        rib.insert(Prefix.parse("10.1.0.0/16"), values.intern("JP"))
        structure = Poptrie.from_rib(rib)
        structure.attach_values(values)
        return structure, values

    def test_lookup_value_resolves_payloads(self):
        structure, _ = self._valued_structure()
        assert structure.lookup_value(
            Prefix.parse("10.1.2.3/32").value) == "JP"
        assert structure.lookup_value(
            Prefix.parse("10.9.9.9/32").value) == "CN"
        assert structure.lookup_value(
            Prefix.parse("11.0.0.1/32").value) is None

    def test_lookup_value_identity_without_table(self):
        from repro.core.poptrie import Poptrie

        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 42)
        structure = Poptrie.from_rib(rib)
        assert structure.values is None
        assert structure.lookup_value(Prefix.parse("10.0.0.1/32").value) == 42

    def test_attach_values_type_checked(self):
        structure, _ = self._valued_structure()
        with pytest.raises(TypeError):
            structure.attach_values({"not": "a table"})
        structure.attach_values(None)
        assert structure.values is None

    def test_stats_reports_value_plane(self):
        structure, _ = self._valued_structure()
        assert structure.stats()["values"] == {"kind": "cc", "count": 2}

    def test_image_round_trip_carries_values(self):
        from repro.core.poptrie import Poptrie

        structure, values = self._valued_structure()
        image = structure.to_image()
        assert any(
            name.startswith("values/") for name in image.segment_names()
        )
        rebuilt = Poptrie.from_image(image)
        assert rebuilt.values == values
        key = Prefix.parse("10.1.2.3/32").value
        assert rebuilt.lookup_value(key) == "JP"

    def test_image_fingerprint_deterministic(self):
        a, _ = self._valued_structure()
        b, _ = self._valued_structure()
        assert a.to_image().fingerprint() == b.to_image().fingerprint()

    def test_kernel_agrees_on_valued_structure(self):
        from repro.lookup import kernels

        structure, _ = self._valued_structure()
        image = structure.to_image()
        assert kernels.kernel_for(image) is not None
        bound = kernels.attach(image)
        keys = np.array(
            [Prefix.parse(t).value for t in
             ("10.1.2.3/32", "10.9.9.9/32", "11.0.0.1/32")],
            dtype=np.uint64,
        )
        expected = [structure.lookup(int(k)) for k in keys]
        assert bound.lookup_batch(keys).tolist() == expected


class TestRegistryValuesOption:
    def test_rib_values_flow_through_builds(self):
        from repro.lookup.registry import get

        values = ValueTable("cc")
        rib = Rib(values=values)
        rib.insert(Prefix.parse("10.0.0.0/8"), values.intern("CN"))
        structure = get("Poptrie18").from_rib(rib)
        assert structure.values is values

    def test_explicit_override_wins(self):
        from repro.lookup.registry import get

        values = ValueTable("cc")
        rib = Rib(values=values)
        rib.insert(Prefix.parse("10.0.0.0/8"), values.intern("CN"))
        other = ValueTable("cc")
        other.intern("CN")
        structure = get("Poptrie18").from_rib(rib, values=other)
        assert structure.values is other
        assert get("Poptrie18").from_rib(rib, values=None).values is None

    def test_values_option_type_checked(self):
        from repro.lookup.registry import get

        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        with pytest.raises(TypeError):
            get("Poptrie18").from_rib(rib, values=["CN"])

    @pytest.mark.parametrize("name", ["Radix", "SAIL", "DIR-24-8", "Lulea"])
    def test_every_entry_accepts_the_option(self, name):
        from repro.lookup.registry import get

        values = ValueTable("u16")
        rib = Rib(values=values)
        rib.insert(Prefix.parse("10.0.0.0/8"), values.intern(9))
        structure = get(name).from_rib(rib)
        assert structure.values is values
        key = Prefix.parse("10.0.0.1/32").value
        assert structure.lookup_value(key) == 9
