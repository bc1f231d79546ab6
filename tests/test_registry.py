"""Tests for the algorithm registry and the uniform constructor surface."""

from __future__ import annotations

import pytest

from repro.lookup import registry
from repro.lookup.base import LookupStructure, NoOptions
from repro.net.rib import Rib
from tests.conftest import boundary_keys, make_random_rib, random_keys


@pytest.fixture(scope="module")
def rib():
    return make_random_rib(400, seed=21, lengths=list(range(8, 29)))


class TestRegistryBasics:
    def test_available_contains_roster_and_extras(self):
        names = registry.available()
        assert set(registry.STANDARD_ALGORITHMS) <= set(names)
        for extra in ("DIR-24-8", "Multibit", "Patricia", "Lulea",
                      "Bloom", "BSearch-Lengths", "Poptrie0"):
            assert extra in names

    def test_get_returns_entry(self):
        entry = registry.get("Poptrie18")
        assert entry.name == "Poptrie18"
        assert entry.options == {"s": 18}
        assert entry.aggregate and entry.pass_fib_size

    def test_get_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="unknown algorithm 'Nope'"):
            registry.get("Nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            registry.register("Radix", object)

    def test_decorator_registration_and_cleanup(self):
        @registry.register("TestOnly", answer=42)
        class _Probe:
            @classmethod
            def from_rib(cls, rib, **options):
                return options

        try:
            entry = registry.get("TestOnly")
            assert entry.cls is _Probe
            assert entry.from_rib(None) == {"answer": 42}
            assert entry.from_rib(None, answer=7) == {"answer": 7}
        finally:
            del registry._ENTRIES["TestOnly"]


class TestUniformConstructors:
    def test_every_entry_builds_from_plain_rib(self, rib):
        """The acceptance criterion: every registered structure builds via
        get(name).from_rib(rib) and agrees with the RIB."""
        keys = boundary_keys(rib)[:2000] + random_keys(500, seed=9)
        for name in registry.available():
            structure = registry.get(name).from_rib(rib)
            assert isinstance(structure, LookupStructure), name
            assert structure.verify_against(rib, keys) == [], name

    @pytest.mark.parametrize("name", ["Radix", "SAIL", "Tree BitMap",
                                      "D18R", "Poptrie18", "Multibit"])
    def test_unknown_option_raises_typeerror(self, rib, name):
        with pytest.raises(TypeError):
            registry.get(name).from_rib(rib, definitely_not_an_option=1)

    def test_config_object_equivalent_to_keywords(self, rib):
        from repro.core.poptrie import Poptrie, PoptrieConfig

        by_config = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        by_kw = Poptrie.from_rib(rib, s=16)
        assert by_config.config == by_kw.config

    def test_keyword_overrides_config(self, rib):
        from repro.core.poptrie import Poptrie, PoptrieConfig

        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16), s=0)
        assert trie.config.s == 0

    def test_wrong_config_type_raises(self, rib):
        from repro.core.poptrie import PoptrieConfig
        from repro.lookup.sail import Sail

        with pytest.raises(TypeError, match="NoOptions"):
            Sail.from_rib(rib, config=PoptrieConfig())

    def test_no_options_resolve(self):
        assert NoOptions.resolve(None, {}) == NoOptions()
        with pytest.raises(TypeError):
            NoOptions.resolve(None, {"stray": 1})


class TestValuePlaneOption:
    """The uniform ``values=`` build option (docs/VALUES.md)."""

    def _valued_rib(self):
        from repro.net.values import ValueTable

        shapes = make_random_rib(60, seed=33, lengths=list(range(8, 25)))
        codes = ("US", "CN", "JP", "DE")
        values = ValueTable("cc")
        rib = type(shapes)(width=shapes.width, values=values)
        for i, (prefix, _) in enumerate(shapes.routes()):
            rib.insert(prefix, values.intern(codes[i % len(codes)]))
        return rib, values

    def test_round_trip_through_every_entry(self):
        """Satellite: a valued RIB builds — and round-trips through the
        image plane — for every image-capable entry, resolving the same
        payloads the RIB holds."""
        rib, values = self._valued_rib()
        probe_keys = [prefix.value for prefix, _ in rib.routes()][:20]
        for name in registry.available():
            entry = registry.get(name)
            structure = entry.from_rib(rib)
            assert structure.values is values, name
            for key in probe_keys:
                assert structure.lookup_value(key) == values.get(
                    rib.lookup(key)
                ), name
            if not entry.supports_image:
                continue
            rebuilt = entry.cls.from_image(structure.to_image())
            assert rebuilt.values == values, name
            for key in probe_keys:
                assert rebuilt.lookup_value(key) == structure.lookup_value(
                    key
                ), name

    def test_values_must_be_a_table(self, rib):
        for name in ("Radix", "Poptrie18", "SAIL"):
            with pytest.raises(TypeError, match="values"):
                registry.get(name).from_rib(rib, values={"CN": 1})

    def test_unknown_keys_still_rejected_alongside_values(self, rib):
        from repro.net.values import ValueTable

        with pytest.raises(TypeError):
            registry.get("Poptrie18").from_rib(
                rib, values=ValueTable("u16"), definitely_not_an_option=1
            )


class TestStandardRoster:
    def test_matches_legacy_behaviour(self, rib):
        roster = registry.standard_roster(rib)
        assert list(roster) == list(registry.STANDARD_ALGORITHMS)
        assert all(s is not None for s in roster.values())

    def test_aggregation_only_for_flagged_entries(self, rib):
        aggregated = registry.standard_roster(rib, names=("Poptrie18",))
        raw = registry.standard_roster(
            rib, names=("Poptrie18",), aggregate_for_poptrie=False
        )
        assert (aggregated["Poptrie18"].memory_bytes()
                <= raw["Poptrie18"].memory_bytes())

    def test_modified_dxr_flag(self, rib):
        roster = registry.standard_roster(
            rib, names=("D16R",), modified_dxr=True
        )
        assert roster["D16R"].modified

    @pytest.mark.parametrize("top", [(1 << 16) - 1, 1 << 16])
    def test_next_hop_beyond_a_fib_limit_is_na(self, rib, top):
        """A structure whose next-hop field cannot hold the table's
        largest FIB index maps to None (Table 5's N/A); every other
        entry builds and agrees with the RIB."""
        from repro.net.prefix import Prefix

        wide = Rib()
        for prefix, hop in rib.routes():
            wide.insert(prefix, hop)
        wide.insert(Prefix.parse("198.51.100.0/24"), top)
        roster = registry.standard_roster(wide, names=registry.available())
        fifteen_bit = {"DIR-24-8", "Lulea", "SAIL"}
        sixteen_bit = {
            "D16R", "D18R", "Multibit", "Tree BitMap",
            "Tree BitMap (64-ary)", "Poptrie0", "Poptrie16", "Poptrie18",
        }
        expected = fifteen_bit | (sixteen_bit if top > 0xFFFF else set())
        assert {n for n, s in roster.items() if s is None} == expected
        keys = boundary_keys(wide) + random_keys(500, seed=23)
        for name, structure in roster.items():
            if structure is not None:
                assert structure.verify_against(wide, keys) == [], name
