"""The Table 1 dataset registry.

Reproduces the paper's 35 routing-table instances by name: 31 RouteViews
peer tables ("RV-*"), three operational tables ("REAL-*") and the four
synthetic expansions ("SYN1-*", "SYN2-*").  Each entry records the
published prefix and next-hop counts; :func:`load_dataset` synthesises the
table at a configurable ``scale`` (1.0 = the published size, default 0.1
so the full benchmark suite runs in CI time) with a seed derived from the
dataset name, so every run of every experiment sees the same tables.

The REAL-* tables carry an IGP fraction (the paper: "the real ones contain
routes exchanged via Interior Gateway Protocols"; Section 4.7 measures
32.5 % of trace packets deeper than 18 bits on REAL-RENET, driven by those
routes).  The SYN tables are derived from REAL-Tier1-A/B with the
Section 4.1 splitting procedures in :mod:`repro.data.expand`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.data import expand, synth
from repro.net.values import Fib, synthetic_fib
from repro.net.rib import Rib


@dataclass(frozen=True)
class DatasetSpec:
    """Published metadata of one Table 1 row."""

    name: str
    prefixes: int
    nexthops: int
    kind: str  # "rv", "real", "syn1", "syn2"
    base: Optional[str] = None  # for syn tables: the table they expand
    igp_fraction: float = 0.0


def _rv(name: str, prefixes: int, nexthops: int) -> DatasetSpec:
    return DatasetSpec(name, prefixes, nexthops, "rv")


_SPECS = [
    # RouteViews tables (Table 1, left-to-right, top-to-bottom).
    _rv("RV-linx-p46", 518231, 308),
    _rv("RV-linx-p50", 512476, 410),
    _rv("RV-linx-p52", 514590, 419),
    _rv("RV-linx-p57", 514070, 142),
    _rv("RV-linx-p60", 508700, 70),
    _rv("RV-linx-p61", 512476, 149),
    _rv("RV-nwax-p1", 519224, 60),
    _rv("RV-nwax-p2", 514627, 46),
    _rv("RV-nwax-p5", 519195, 49),
    _rv("RV-paixisc-p12", 519142, 68),
    _rv("RV-paixisc-p14", 524168, 49),
    _rv("RV-saopaulo-p12", 516536, 510),
    _rv("RV-saopaulo-p13", 517914, 504),
    _rv("RV-saopaulo-p16", 521405, 528),
    _rv("RV-saopaulo-p18", 521874, 522),
    _rv("RV-saopaulo-p2", 523092, 530),
    _rv("RV-saopaulo-p20", 523574, 470),
    _rv("RV-saopaulo-p23", 523013, 517),
    _rv("RV-saopaulo-p25", 532637, 523),
    _rv("RV-saopaulo-p26", 516408, 479),
    _rv("RV-saopaulo-p8", 522296, 477),
    _rv("RV-saopaulo-p9", 515639, 507),
    _rv("RV-singapore-p3", 518620, 136),
    _rv("RV-singapore-p5", 516557, 129),
    _rv("RV-sydney-p0", 520580, 122),
    _rv("RV-sydney-p1", 515809, 125),
    _rv("RV-sydney-p3", 517511, 115),
    _rv("RV-sydney-p4", 519246, 86),
    _rv("RV-sydney-p9", 523400, 127),
    _rv("RV-telxatl-p3", 511161, 56),
    _rv("RV-telxatl-p6", 519537, 42),
    _rv("RV-telxatl-p7", 513339, 49),
    # Operational tables: IGP routes present.
    DatasetSpec("REAL-Tier1-A", 531489, 13, "real", igp_fraction=0.06),
    DatasetSpec("REAL-Tier1-B", 524170, 9, "real", igp_fraction=0.05),
    DatasetSpec("REAL-RENET", 516100, 32, "real", igp_fraction=0.08),
    # Synthetic expansions (sizes are the published outcomes; the actual
    # route count comes from applying the split procedure).
    DatasetSpec("SYN1-Tier1-A", 764847, 45, "syn1", base="REAL-Tier1-A"),
    DatasetSpec("SYN1-Tier1-B", 756406, 19, "syn1", base="REAL-Tier1-B"),
    DatasetSpec("SYN2-Tier1-A", 885645, 87, "syn2", base="REAL-Tier1-A"),
    DatasetSpec("SYN2-Tier1-B", 876944, 33, "syn2", base="REAL-Tier1-B"),
]

DATASETS: Dict[str, DatasetSpec] = {spec.name: spec for spec in _SPECS}

#: Table 1 rows only (what the Figure 9 sweep iterates over).
EVALUATION_TABLES = [spec.name for spec in _SPECS if spec.kind in ("rv", "real")]
SYNTHETIC_TABLES = [spec.name for spec in _SPECS if spec.kind in ("syn1", "syn2")]


@dataclass
class Dataset:
    """A materialised dataset: the RIB, its FIB, and its metadata."""

    spec: DatasetSpec
    rib: Rib
    fib: Fib
    scale: float

    @property
    def name(self) -> str:
        return self.spec.name

    def __len__(self) -> int:
        return len(self.rib)


def _seed_for(name: str) -> int:
    """Stable per-name seed (zlib.crc32 is stable across Python runs)."""
    return zlib.crc32(name.encode()) or 1


_CACHE: Dict[Tuple[str, float], Dataset] = {}


def load_dataset(name: str, scale: float = 0.1, cache: bool = True) -> Dataset:
    """Materialise a Table 1 dataset at the given scale.

    ``scale`` multiplies the published prefix count (1.0 reproduces the
    published size; the default 0.1 keeps a full 35-table sweep tractable
    in pure Python).  Next-hop counts are not scaled — they are small and
    their cardinality, not the table size, is what drives compressibility.
    """
    key = (name, scale)
    if cache and key in _CACHE:
        return _CACHE[key]
    spec = DATASETS[name]
    if spec.kind in ("syn1", "syn2"):
        assert spec.base is not None
        base = load_dataset(spec.base, scale=scale, cache=cache)
        rib = (
            expand.expand_syn1(base.rib)
            if spec.kind == "syn1"
            else expand.expand_syn2(base.rib)
        )
        max_fib = rib.max_fib_index()
        dataset = Dataset(spec, rib, synthetic_fib(max_fib), scale)
    else:
        n = max(int(spec.prefixes * scale), 64)
        rib, fib = synth.generate_table(
            n_prefixes=n,
            n_nexthops=spec.nexthops,
            seed=_seed_for(name),
            igp_fraction=spec.igp_fraction,
        )
        dataset = Dataset(spec, rib, fib, scale)
    if cache:
        _CACHE[key] = dataset
    return dataset


def load_dataset_v6(name: str = "REAL-Tier1-A-v6", scale: float = 1.0) -> Dataset:
    """The Section 4.10 IPv6 table: 20,440 prefixes from the same router
    as REAL-Tier1-A (synthesised; IPv6 tables are small enough that the
    default scale is 1.0)."""
    n = max(int(20440 * scale), 64)
    rib, fib = synth.generate_table_v6(n, n_nexthops=13, seed=_seed_for(name))
    spec = DatasetSpec(name, 20440, 13, "real-v6")
    return Dataset(spec, rib, fib, scale)
