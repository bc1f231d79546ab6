"""Baseline lookup structures the paper compares Poptrie against.

Each module implements one published algorithm on top of the same RIB
substrate and the same FIB-index contract as Poptrie:

- :mod:`repro.lookup.radix` — the binary radix tree (the "Radix" rows).
- :mod:`repro.lookup.treebitmap` — Tree BitMap (Eatherton et al. 2004),
  both the original 16-ary and the paper's 64-ary popcount variant.
- :mod:`repro.lookup.dxr` — DXR (Zec et al. 2012): D16R and D18R, the
  2^19-range structural limit, the paper's "modified" 2^20 variant and the
  Section 4.10 IPv6 extension.
- :mod:`repro.lookup.sail` — SAIL_L (Yang et al. 2014) with the 15-bit
  chunk-identifier limit that Section 4.8 exercises.
- :mod:`repro.lookup.dir24_8` — DIR-24-8-BASIC (Gupta et al. 1998).

Plus the rest of Section 2's lineage, for completeness and ablation:

- :mod:`repro.lookup.multibit` — the uncompressed 2^k-ary trie (Figure 1)
  Poptrie compresses (Srinivasan & Varghese's controlled prefix expansion).
- :mod:`repro.lookup.patricia` — the path-compressed Patricia trie
  (Morrison 1968 / Sklower's BSD routing table).
- :mod:`repro.lookup.bsearch_lengths` — binary search on prefix lengths
  with markers and precomputed BMPs (Waldvogel et al. 1997).
- :mod:`repro.lookup.bloom` — Bloom-filter-guided LPM (Dharmapurikar
  et al. 2006).
- :mod:`repro.lookup.lulea` — the Lulea compressed 16/8/8 trie
  (Degermark et al. 1997), the ancestor of the leafvec technique.

All of the above (plus Poptrie itself) self-register with
:mod:`repro.lookup.registry`, the single place that knows how to build the
paper's comparison roster — ``registry.get(name).from_rib(rib)``.

:mod:`repro.lookup.kernels` holds the stateless branchless batch kernels
that serve the flat-array structures (Poptrie, DIR-24-8, SAIL, DXR)
straight off zero-copy ``TableImage`` segment views — the data plane's
hot path (docs/KERNELS.md).
"""

from repro.lookup import kernels, registry
from repro.lookup.base import (
    LookupStructure,
    NoOptions,
    StructureConfig,
    normalize_batch_keys,
)
from repro.lookup.radix import RadixLookup
from repro.lookup.treebitmap import TreeBitmap
from repro.lookup.dxr import Dxr
from repro.lookup.sail import Sail
from repro.lookup.dir24_8 import Dir24_8
from repro.lookup.multibit import MultibitTrie
from repro.lookup.patricia import PatriciaTrie
from repro.lookup.bsearch_lengths import BinarySearchLengths
from repro.lookup.bloom import BloomLpm
from repro.lookup.lulea import Lulea

__all__ = [
    "LookupStructure",
    "StructureConfig",
    "NoOptions",
    "normalize_batch_keys",
    "kernels",
    "registry",
    "RadixLookup",
    "TreeBitmap",
    "Dxr",
    "Sail",
    "Dir24_8",
    "MultibitTrie",
    "PatriciaTrie",
    "BinarySearchLengths",
    "BloomLpm",
    "Lulea",
]
