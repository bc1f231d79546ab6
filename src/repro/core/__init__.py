"""The paper's primary contribution: the Poptrie lookup structure.

- :mod:`repro.core.poptrie` — the compressed 2^k-ary trie with population
  count (Sections 3.1–3.4): bit-vector descendant arrays, leafvec leaf
  compression, direct pointing.
- :mod:`repro.core.builder` — compilation from the radix-tree RIB
  (controlled prefix expansion and node serialization).
- :mod:`repro.core.update` — the surgery of incremental, swap-on-commit
  updates (Section 3.5), which ``Poptrie._stage`` runs one message at a
  time.
- :mod:`repro.core.aggregate` — route aggregation (the FIB compression the
  paper applies before compilation) plus an optimal ORTC variant.

Batch lookups run the branchless Poptrie kernel in
:mod:`repro.lookup.kernels` (IPv4 and IPv6 alike).
"""

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.core.update import UpdateStats

__all__ = ["Poptrie", "PoptrieConfig", "UpdateStats"]
