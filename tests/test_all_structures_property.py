"""Property-based cross-structure agreement.

The strongest integration invariant in the library: for *any* route
table, every lookup structure below — thirteen builds on IPv4, the nine
IPv6-capable ones on IPv6 — returns the same FIB index as the reference
radix tree for every address.  Hypothesis drives the table shapes; each
failure would shrink to a minimal route set.
"""

from hypothesis import given, settings, strategies as st

from tests.conftest import boundary_keys, make_random_rib

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.lookup.bloom import BloomLpm
from repro.lookup.bsearch_lengths import BinarySearchLengths
from repro.lookup.dir24_8 import Dir24_8
from repro.lookup.dxr import Dxr
from repro.lookup.lulea import Lulea
from repro.lookup.multibit import MultibitTrie
from repro.lookup.patricia import PatriciaTrie
from repro.lookup.sail import Sail
from repro.lookup.treebitmap import TreeBitmap

BUILDERS = [
    ("Poptrie18", lambda rib: Poptrie.from_rib(rib, PoptrieConfig(s=18))),
    ("Poptrie0", lambda rib: Poptrie.from_rib(rib, PoptrieConfig(s=0))),
    ("TreeBitmap4", lambda rib: TreeBitmap.from_rib(rib, stride=4)),
    ("TreeBitmap6", lambda rib: TreeBitmap.from_rib(rib, stride=6)),
    ("D16R", lambda rib: Dxr.from_rib(rib, s=16)),
    ("D18R", lambda rib: Dxr.from_rib(rib, s=18)),
    ("SAIL", Sail.from_rib),
    ("DIR-24-8", Dir24_8.from_rib),
    ("Multibit", lambda rib: MultibitTrie.from_rib(rib, k=6)),
    ("Patricia", PatriciaTrie.from_rib),
    ("BSearch", BinarySearchLengths.from_rib),
    ("Bloom", BloomLpm.from_rib),
    ("Lulea", Lulea.from_rib),
]

#: The structures that compile 128-bit tables (DXR only in its modified,
#: flag-absorbing format).
BUILDERS_V6 = [
    ("Poptrie0", lambda rib: Poptrie.from_rib(rib, PoptrieConfig(s=0))),
    ("Poptrie18", lambda rib: Poptrie.from_rib(rib, PoptrieConfig(s=18))),
    ("D16R", lambda rib: Dxr.from_rib(rib, s=16, modified=True)),
    ("Multibit", lambda rib: MultibitTrie.from_rib(rib, k=6)),
    ("TreeBitmap4", lambda rib: TreeBitmap.from_rib(rib, stride=4)),
    ("TreeBitmap6", lambda rib: TreeBitmap.from_rib(rib, stride=6)),
    ("Patricia", PatriciaTrie.from_rib),
    ("BSearch", BinarySearchLengths.from_rib),
    ("Bloom", BloomLpm.from_rib),
]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1_000_000),
    n_routes=st.integers(min_value=1, max_value=120),
)
def test_every_structure_agrees_with_radix(seed, n_routes):
    rib = make_random_rib(n_routes, seed=seed, width=32, max_nexthop=25)
    structures = [(name, build(rib)) for name, build in BUILDERS]
    keys = boundary_keys(rib)
    # Plus a few adversarial constants.
    keys += [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]
    for key in keys:
        expected = rib.lookup(key)
        for name, structure in structures:
            got = structure.lookup(key)
            assert got == expected, (
                f"{name} disagrees at {key:#010x}: {got} != {expected} "
                f"(seed={seed}, n={n_routes})"
            )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1_000_000),
    n_routes=st.integers(min_value=1, max_value=120),
)
def test_every_v6_structure_agrees_with_radix(seed, n_routes):
    rib = make_random_rib(n_routes, seed=seed, width=128, max_nexthop=25)
    structures = [(name, build(rib)) for name, build in BUILDERS_V6]
    top = (1 << 128) - 1
    keys = boundary_keys(rib) + [0, 1, top >> 1, (top >> 1) + 1, top]
    for key in keys:
        expected = rib.lookup(key)
        for name, structure in structures:
            got = structure.lookup(key)
            assert got == expected, (
                f"{name} disagrees at {key:#034x}: {got} != {expected} "
                f"(seed={seed}, n={n_routes})"
            )
