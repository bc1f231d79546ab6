"""Networking substrate: IP addresses, prefixes, FIB and the radix-tree RIB.

This package provides the data model every lookup structure in the library
is compiled from:

- :mod:`repro.net.ip` — IPv4/IPv6 address parsing, formatting and bit algebra.
- :mod:`repro.net.prefix` — the :class:`~repro.net.prefix.Prefix` value type.
- :mod:`repro.net.values` — the typed value plane: :class:`ValueTable`
  side-tables (country codes, ACL classes, next hops...) whose dense ids
  are what lookup structures store in their leaves.  The FIB is the
  ``"nexthop"``-kinded table.
- :mod:`repro.net.rib` — the binary radix tree holding the RIB, which is the
  source of truth that Poptrie and all baseline structures compile from
  (paper, Section 3: "the routes are preserved in a separate routing table").
"""

from repro.net.ip import (
    IPV4_BITS,
    IPV6_BITS,
    format_address,
    parse_address,
    parse_prefix,
)
from repro.net.prefix import Prefix
from repro.net.values import (
    NO_ROUTE,
    NO_VALUE,
    Fib,
    NextHop,
    ValueTable,
    synthetic_fib,
    value_kind,
)
from repro.net.rib import Rib

__all__ = [
    "IPV4_BITS",
    "IPV6_BITS",
    "format_address",
    "parse_address",
    "parse_prefix",
    "Prefix",
    "NO_ROUTE",
    "NO_VALUE",
    "Fib",
    "NextHop",
    "ValueTable",
    "synthetic_fib",
    "value_kind",
    "Rib",
]
