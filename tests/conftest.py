"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.mem.buddy import allocator_state  # noqa: F401  (tests import it from here)
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.net.values import NO_ROUTE


def make_random_rib(
    n_routes: int,
    seed: int,
    width: int = 32,
    max_nexthop: int = 50,
    lengths=None,
) -> Rib:
    """A random route table for equivalence tests."""
    rng = random.Random(seed)
    rib = Rib(width=width)
    while len(rib) < n_routes:
        if lengths is not None:
            length = rng.choice(lengths)
        else:
            length = rng.randint(1, width)
        value = rng.getrandbits(length) << (width - length) if length else 0
        prefix = Prefix(value, length, width)
        if not rib.get(prefix):
            rib.insert(prefix, rng.randint(1, max_nexthop))
    return rib


def naive_lpm(routes: List[Tuple[Prefix, int]], address: int) -> int:
    """Reference longest-prefix match by linear scan."""
    best_len = -1
    best = NO_ROUTE
    for prefix, fib_index in routes:
        if prefix.contains_address(address) and prefix.length > best_len:
            best_len = prefix.length
            best = fib_index
    return best


def boundary_keys(rib: Rib) -> List[int]:
    """First/last addresses of every prefix — the off-by-one hot spots."""
    keys: List[int] = []
    maximum = (1 << rib.width) - 1
    for prefix, _ in rib.routes():
        first = prefix.first_address()
        last = prefix.last_address()
        keys.extend(
            k for k in (first, last, max(first - 1, 0), min(last + 1, maximum))
        )
    return keys


def random_keys(count: int, seed: int, width: int = 32) -> List[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(width) for _ in range(count)]


@pytest.fixture(scope="session")
def bgp_rib() -> Rib:
    """A realistic BGP-style table shared by the structure tests."""
    from repro.data.synth import generate_table

    rib, _ = generate_table(
        n_prefixes=4000, n_nexthops=64, seed=1234, igp_fraction=0.05
    )
    return rib


@pytest.fixture(scope="session")
def small_rib() -> Rib:
    """Small mixed table with hole punching and a default route."""
    rib = Rib(width=32)
    routes = [
        ("0.0.0.0/0", 1),
        ("10.0.0.0/8", 2),
        ("10.128.0.0/9", 3),
        ("10.128.64.0/18", 4),
        ("10.128.64.128/25", 5),
        ("192.0.2.0/24", 6),
        ("192.0.2.128/26", 7),
        ("203.0.113.7/32", 8),
        ("198.51.0.0/16", 9),
        ("198.51.100.0/24", 2),
    ]
    for text, hop in routes:
        rib.insert(Prefix.parse(text), hop)
    return rib
