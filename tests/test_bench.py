"""Tests for the benchmark harness (measurement + roster + reporting)."""

import numpy as np
import pytest

from repro.bench.harness import (
    RateResult,
    measure_compile_time,
    measure_rate_batch,
    measure_rate_scalar,
    measure_rate_scalar_keys,
)
from repro.bench.report import Table
from repro.data.synth import generate_table
from repro.lookup.radix import RadixLookup
from repro.lookup.registry import (
    STANDARD_ALGORITHMS,
    build_structures,
    standard_roster,
)


@pytest.fixture(scope="module")
def rib():
    table, _ = generate_table(800, 16, seed=55)
    return table


class TestRateResult:
    def test_mlps(self):
        result = RateResult("x", lookups=2_000_000, seconds=1.0)
        assert result.mlps == 2.0

    def test_zero_time_guard(self):
        assert RateResult("x", 10, 0.0).mlps == 0.0

    def test_memory_mib(self):
        assert RateResult("x", 1, 1.0, memory_bytes=1 << 20).memory_mib == 1.0


class TestMeasurement:
    def test_scalar_rate(self, rib):
        structure = RadixLookup.from_rib(rib)
        result = measure_rate_scalar(structure, count=2000)
        assert result.lookups == 2000 and result.seconds > 0

    def test_scalar_keys_rate(self, rib):
        structure = RadixLookup.from_rib(rib)
        result = measure_rate_scalar_keys(structure, list(range(1000)))
        assert result.lookups == 1000

    def test_batch_rate(self, rib):
        structure = RadixLookup.from_rib(rib)
        keys = np.arange(4000, dtype=np.uint64)
        result = measure_rate_batch(structure, keys, repeats=1)
        assert result.lookups == 4000

    def test_compile_time(self, rib):
        structure, seconds = measure_compile_time(
            lambda: RadixLookup.from_rib(rib), repeats=2
        )
        assert isinstance(structure, RadixLookup) and seconds > 0


class TestRoster:
    def test_builds_standard_set(self, rib):
        roster = standard_roster(rib)
        assert set(roster) == set(STANDARD_ALGORITHMS)
        assert all(s is not None for s in roster.values())

    def test_roster_structures_agree(self, rib):
        import random

        roster = standard_roster(rib)
        rng = random.Random(1)
        keys = [rng.getrandbits(32) for _ in range(1500)]
        reference = roster["Radix"]
        for name, structure in roster.items():
            for key in keys:
                assert structure.lookup(key) == reference.lookup(key), name

    def test_structural_limit_maps_to_none(self, rib, monkeypatch):
        import repro.lookup.sail as sail_module

        monkeypatch.setattr(sail_module, "MAX_CHUNKS", 1)
        roster = standard_roster(rib, names=("SAIL", "Radix"))
        assert roster["SAIL"] is None
        assert roster["Radix"] is not None

    def test_build_structures_drops_na(self, rib, monkeypatch):
        import repro.lookup.sail as sail_module

        monkeypatch.setattr(sail_module, "MAX_CHUNKS", 1)
        structures = build_structures(rib, names=("SAIL", "Radix"))
        assert [s.name for s in structures] == ["Radix"]

    def test_poptrie_compiles_from_aggregated_table(self, rib):
        roster = standard_roster(rib, names=("Poptrie18",))
        raw = standard_roster(
            rib, names=("Poptrie18",), aggregate_for_poptrie=False
        )
        assert (
            roster["Poptrie18"].memory_bytes()
            <= raw["Poptrie18"].memory_bytes()
        )


class TestReportTable:
    def test_renders_aligned(self):
        table = Table(["algo", "Mlps"], title="demo")
        table.add_row(["Poptrie18", 240.52])
        table.add_row(["SAIL", None])
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "Poptrie18" in text and "240.52" in text
        assert "N/A" in text

    def test_formats_ints_and_floats(self):
        table = Table(["a"])
        table.add_row([3])
        table.add_row([3.14159])
        assert "3" in table.render() and "3.14" in table.render()
