"""Typed leaf values: the generalized value plane.

Nothing in Poptrie's compressed-trie design is next-hop-specific — the
leaves carry small integer ids, and what an id *means* lives in a side
table.  The paper's side table is the FIB ("Poptrie is only used to look
up a FIB index for the purpose of deciding the next hop", Section 3);
this module generalizes it so the same structures serve any
longest-prefix key→value workload (GeoIP country codes, ACL classes,
DNS split-horizon views...).

The model:

- A :class:`ValueTable` interns arbitrary typed payloads and hands out
  dense integer ids.  Id ``0`` is the :data:`NO_VALUE` sentinel (the
  same number as :data:`NO_ROUTE` — a lookup miss), so every structure's
  miss behaviour is unchanged.
- Each table has a :class:`ValueKind` — ``"u16"``, ``"u32"``, ``"cc"``
  (ISO 3166 two-letter country codes, stored as the swoiow poptrie's
  ``(c0 << 8) | c1`` u16 encoding) or ``"nexthop"`` — that validates
  payloads and provides the segment codec (for
  :class:`~repro.parallel.image.TableImage` travel) and the text codec
  (for the ``# repro-values`` table-snapshot directives).
- :class:`Fib` is simply the ``"nexthop"``-kinded :class:`ValueTable`.

Lookup structures never see payloads: ids flow RIB → leaves → kernels
unchanged, and resolution happens at the edge
(:meth:`repro.lookup.base.LookupStructure.lookup_value`).

>>> table = ValueTable("cc")
>>> table.intern("JP")
1
>>> table.intern("US"), table.intern("JP")
(2, 1)
>>> table[1]
'JP'
>>> fib = Fib()
>>> fib.intern(NextHop("10.0.0.1"))
1
>>> fib[1].gateway
'10.0.0.1'
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: FIB index / value id returned when no prefix matches.  One number for
#: both names: a structure miss is a miss regardless of the value kind.
NO_ROUTE = 0
NO_VALUE = NO_ROUTE


@dataclass(frozen=True)
class NextHop:
    """A next hop: gateway address text and egress port.

    Real routers store more (MAC rewrite info, encapsulation, counters); for
    the purposes of lookup benchmarking the identity of the next hop is what
    matters, so this stays a small value object.
    """

    gateway: str
    port: int = 0

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.gateway}%{self.port}"


def cc_to_u16(code: str) -> int:
    """Encode a two-letter country code as the swoiow u16: ``(c0<<8)|c1``.

    >>> hex(cc_to_u16("CN"))
    '0x434e'
    """
    if len(code) != 2 or not code.isascii() or not code.isalpha():
        raise ValueError(f"not a two-letter country code: {code!r}")
    code = code.upper()
    return (ord(code[0]) << 8) | ord(code[1])


def u16_to_cc(value: int) -> str:
    """Decode :func:`cc_to_u16`'s encoding back to the two-letter code."""
    hi, lo = (value >> 8) & 0xFF, value & 0xFF
    code = chr(hi) + chr(lo)
    if not ("A" <= code[0] <= "Z" and "A" <= code[1] <= "Z"):
        raise ValueError(f"not an encoded country code: {value:#x}")
    return code


class ValueKind:
    """One payload type: validation plus the segment and text codecs.

    ``pack``/``unpack`` translate the table's payload list to and from
    named unsigned numpy segments (the :class:`~repro.parallel.image
    .TableImage` representation); ``format``/``parse`` are the
    single-token text codec used by the ``# repro-values`` directives in
    table snapshots.  Both are deterministic, so image fingerprints stay
    a pure function of table contents.
    """

    name: str = "abstract"

    def check(self, value):
        """Validate/normalize a payload; raises ``TypeError``/``ValueError``."""
        raise NotImplementedError

    def pack(self, values: Sequence) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def unpack(self, segments: Mapping[str, np.ndarray]) -> List:
        raise NotImplementedError

    def format(self, value) -> str:
        raise NotImplementedError

    def parse(self, token: str):
        raise NotImplementedError


class _IntKind(ValueKind):
    """Plain unsigned integer payloads (``u16``/``u32``)."""

    def __init__(self, name: str, bits: int) -> None:
        self.name = name
        self.bits = bits
        self._dtype = np.uint16 if bits == 16 else np.uint32

    def check(self, value):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(
                f"{self.name} values must be integers, "
                f"not {type(value).__name__}"
            )
        value = int(value)
        if not 0 <= value < (1 << self.bits):
            raise ValueError(
                f"{value} does not fit a {self.name} value"
            )
        return value

    def pack(self, values):
        return {"data": np.asarray(values, dtype=self._dtype)}

    def unpack(self, segments):
        return [int(v) for v in segments["data"]]

    def format(self, value) -> str:
        return str(int(value))

    def parse(self, token: str):
        return self.check(int(token))


class _CountryKind(ValueKind):
    """ISO 3166 alpha-2 country codes, stored as u16 (swoiow encoding)."""

    name = "cc"

    def check(self, value):
        if not isinstance(value, str):
            raise TypeError(
                f"cc values must be two-letter strings, "
                f"not {type(value).__name__}"
            )
        cc_to_u16(value)  # validates
        return value.upper()

    def pack(self, values):
        return {
            "data": np.fromiter(
                (cc_to_u16(v) for v in values), np.uint16, len(values)
            )
        }

    def unpack(self, segments):
        return [u16_to_cc(int(v)) for v in segments["data"]]

    def format(self, value) -> str:
        return value

    def parse(self, token: str):
        return self.check(token)


class _NextHopKind(ValueKind):
    """:class:`NextHop` payloads: gateway text blob + offsets + ports."""

    name = "nexthop"

    def check(self, value):
        if not isinstance(value, NextHop):
            raise TypeError(
                f"nexthop values must be NextHop, not {type(value).__name__}"
            )
        return value

    def pack(self, values):
        blobs = [hop.gateway.encode("utf-8") for hop in values]
        offsets = np.zeros(len(values) + 1, dtype=np.uint32)
        np.cumsum([len(b) for b in blobs], out=offsets[1:])
        return {
            "blob": np.frombuffer(b"".join(blobs), dtype=np.uint8),
            "offsets": offsets,
            "ports": np.fromiter(
                (hop.port for hop in values), np.uint32, len(values)
            ),
        }

    def unpack(self, segments):
        blob = segments["blob"].tobytes()
        offsets = segments["offsets"].tolist()
        ports = segments["ports"].tolist()
        return [
            NextHop(blob[offsets[i]:offsets[i + 1]].decode("utf-8"), ports[i])
            for i in range(len(ports))
        ]

    def format(self, value) -> str:
        return f"{value.gateway}%{value.port}"

    def parse(self, token: str):
        gateway, _, port = token.rpartition("%")
        if not gateway:
            raise ValueError(f"not a gateway%port token: {token!r}")
        return NextHop(gateway, int(port))


#: The kind registry.  Keys are what travels in image meta / snapshot
#: directives, so renaming one is a format break.
VALUE_KINDS: Dict[str, ValueKind] = {
    kind.name: kind
    for kind in (
        _IntKind("u16", 16),
        _IntKind("u32", 32),
        _CountryKind(),
        _NextHopKind(),
    )
}


def value_kind(name: str) -> ValueKind:
    """The :class:`ValueKind` registered under ``name``."""
    try:
        return VALUE_KINDS[name]
    except KeyError:
        known = ", ".join(sorted(VALUE_KINDS))
        raise ValueError(
            f"unknown value kind {name!r} (known: {known})"
        ) from None


class ValueTable:
    """A typed side-table mapping dense integer ids to payloads.

    Generalizes the FIB's next-hop interning: ``intern`` hands out ids
    ``1, 2, ...`` in first-seen order (id 0 is the :data:`NO_VALUE`
    sentinel), lookups by id come back through ``table[id]`` / ``get``.
    Interning order *is* the id assignment, so the segment encoding —
    and every image fingerprint built over it — is deterministic.

    >>> table = ValueTable("u16")
    >>> table.intern(7), table.intern(9), table.intern(7)
    (1, 2, 1)
    >>> table[2], table.get(NO_VALUE)
    (9, None)
    """

    def __init__(self, kind: str = "u32",
                 max_entries: Optional[int] = None) -> None:
        self._kind = value_kind(kind)
        # Slot 0 is the NO_VALUE sentinel; it has no payload.
        self._entries: List[Optional[object]] = [None]
        self._index: Dict[object, int] = {}
        self._max_entries = max_entries

    @property
    def kind(self) -> str:
        """The registered :class:`ValueKind` name ("u16", "cc", ...)."""
        return self._kind.name

    @property
    def codec(self) -> ValueKind:
        """The kind's codec object (segment + text encode/decode)."""
        return self._kind

    def __len__(self) -> int:
        """Number of real payloads (the sentinel is not counted)."""
        return len(self._entries) - 1

    def __getitem__(self, index: int):
        if index == NO_VALUE:
            raise KeyError("id 0 is the NO_VALUE / NO_ROUTE sentinel")
        entry = self._entries[index]
        assert entry is not None
        return entry

    def __iter__(self) -> Iterator:
        return iter(e for e in self._entries[1:] if e is not None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ValueTable):
            return NotImplemented
        return self.kind == other.kind and self._entries == other._entries

    __hash__ = None  # equality is by contents; tables are mutable

    def intern(self, value) -> int:
        """Return the id for ``value``, allocating one if new."""
        value = self._kind.check(value)
        existing = self._index.get(value)
        if existing is not None:
            return existing
        index = len(self._entries)
        if self._max_entries is not None and index > self._max_entries:
            raise OverflowError(
                f"value table capacity exceeded ({self._max_entries} entries)"
            )
        self._entries.append(value)
        self._index[value] = index
        return index

    def id_of(self, value) -> Optional[int]:
        """The id already assigned to ``value``, or ``None``."""
        return self._index.get(self._kind.check(value))

    def get(self, index: int):
        """Like ``__getitem__`` but returns ``None`` for :data:`NO_VALUE`."""
        if index == NO_VALUE:
            return None
        return self._entries[index]

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary (the ``stats()["values"]`` payload)."""
        return {"kind": self.kind, "count": len(self)}

    # -- image travel --------------------------------------------------------

    def to_segments(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """``(meta, segments)`` for embedding in a ``TableImage``.

        The segments use only unsigned dtypes and the table's id order,
        so two tables with identical contents serialize identically.
        """
        meta = {"kind": self.kind, "count": len(self)}
        return meta, self._kind.pack(self._entries[1:])

    @classmethod
    def from_segments(
        cls, meta: Mapping[str, object], segments: Mapping[str, np.ndarray]
    ) -> "ValueTable":
        """Rebuild a table from :meth:`to_segments` output.

        Returns a :class:`Fib` for ``kind="nexthop"`` so next-hop callers
        get the historical type back.  Raises
        :class:`~repro.errors.SnapshotFormatError` on malformed input.
        """
        from repro.errors import SnapshotFormatError

        try:
            kind = value_kind(str(meta["kind"]))
            count = int(meta["count"])
            values = kind.unpack(segments)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            raise SnapshotFormatError(
                f"malformed value table: {exc}"
            ) from exc
        if len(values) != count:
            raise SnapshotFormatError(
                f"value table declares {count} entries, "
                f"segments hold {len(values)}"
            )
        table = Fib() if kind.name == "nexthop" else cls(kind=kind.name)
        for value in values:
            table.intern(value)
        if len(table) != count:
            raise SnapshotFormatError(
                "value table entries are not distinct"
            )
        return table


class Fib(ValueTable):
    """The next-hop table: a ``"nexthop"``-kinded :class:`ValueTable`.

    Kept as its own class because "the FIB" is the paper's name for this
    table and half the library passes it around; everything it does is
    now inherited.

    >>> fib = Fib()
    >>> a = fib.intern(NextHop("10.0.0.1"))
    >>> b = fib.intern(NextHop("10.0.0.2"))
    >>> fib.intern(NextHop("10.0.0.1")) == a
    True
    >>> fib[a].gateway
    '10.0.0.1'
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        super().__init__(kind="nexthop", max_entries=max_entries)


def synthetic_fib(count: int, base_port: int = 0) -> Fib:
    """Build a FIB with ``count`` distinct synthetic next hops.

    Used by the dataset generators: Table 1 of the paper characterises each
    RIB by its number of distinct next hops, which is what drives leaf
    compressibility in Poptrie.
    """
    fib = Fib()
    for i in range(count):
        fib.intern(NextHop(f"10.{(i >> 8) & 0xFF}.{i & 0xFF}.1", base_port + i))
    return fib
