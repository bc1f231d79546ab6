"""The algorithm registry: one canonical roster of lookup structures.

Before this module existed the roster was hand-rolled in four places
(``bench/harness.py``, the CLI, ``benchmarks/conftest.py`` and the
property tests); adding a structure meant four edits.  Now a structure
registers itself once, next to its class definition::

    from repro.lookup.registry import register

    @register("SAIL")
    class Sail(LookupStructure):
        ...

and variants (same class, different build options) register explicitly::

    register("D16R", Dxr, s=16)
    register("D18R", Dxr, s=18)

Consumers resolve entries by name:

- :func:`get` -> an :class:`AlgorithmEntry` whose :meth:`~AlgorithmEntry.from_rib`
  builds the structure with its registered default options;
- :func:`available` -> all registered names (registration order);
- :func:`standard_roster` / :func:`build_structures` -> the paper's
  Figure 9 comparison roster, built from one RIB with the paper's
  aggregation policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "AlgorithmEntry",
    "available",
    "build_structures",
    "get",
    "register",
    "standard_roster",
    "STANDARD_ALGORITHMS",
]

#: The Figure 9 roster, in the paper's plotting order.
STANDARD_ALGORITHMS: Tuple[str, ...] = (
    "Radix",
    "Tree BitMap",
    "SAIL",
    "D16R",
    "Poptrie16",
    "D18R",
    "Poptrie18",
)

#: Entries whose class accepts DXR's ``modified`` (flag-absorbing) option.
_DXR_NAMES = frozenset({"D16R", "D18R"})


@dataclass(frozen=True)
class AlgorithmEntry:
    """One registered structure (or variant): class + default options.

    ``aggregate`` marks entries the paper compiles from the
    route-aggregated table (Poptrie, Section 3); ``pass_fib_size`` marks
    entries whose builder validates an explicit FIB size against its leaf
    width.  Both are roster policy knobs — a plain :meth:`from_rib`
    ignores them.
    """

    name: str
    cls: type
    options: Mapping[str, object] = field(default_factory=dict)
    aggregate: bool = False
    pass_fib_size: bool = False

    def from_rib(self, rib, **overrides):
        """Build this structure from ``rib`` with the registered defaults.

        Keyword ``overrides`` win over the registered options; unknown
        option names raise ``TypeError`` (the uniform constructor
        contract of :class:`repro.lookup.base.LookupStructure`).

        ``values=`` is the one option every entry accepts identically:
        a :class:`~repro.net.values.ValueTable` to attach to the built
        structure (``None`` detaches).  When omitted, the RIB's own
        attached table (``rib.values``) carries over — structures never
        read the table, so the build itself is unchanged either way.

        The built structure comes back with ``rib`` bound for updates
        (:meth:`~repro.lookup.base.LookupStructure.bind_rib`, with a
        rebuild closure reproducing these exact build options), so
        ``structure.apply_updates(batch)`` works out of the box on every
        registry entry.
        """
        from repro.lookup.base import LookupStructure
        from repro.net.values import ValueTable

        has_values = "values" in overrides
        values = overrides.pop("values", None)
        if values is not None and not isinstance(values, ValueTable):
            raise TypeError(
                f"values must be a ValueTable or None, "
                f"not {type(values).__name__}"
            )
        merged = {**self.options, **overrides}
        structure = self.cls.from_rib(rib, **merged)
        if not has_values:
            values = getattr(rib, "values", None)
        if isinstance(structure, LookupStructure):
            if values is not None:
                structure.attach_values(values)
            structure.bind_rib(
                rib, rebuild=lambda r: self.cls.from_rib(r, **merged)
            )
        return structure

    @property
    def fib_limit(self) -> int:
        """The largest next hop this entry's structures encode (built
        empty when the build options set it, as Poptrie's do)."""
        from repro.net.rib import Rib

        limit = self.cls.fib_limit
        return limit if isinstance(limit, int) else self.from_rib(Rib()).fib_limit

    @property
    def supports_image(self) -> bool:
        """True when instances round-trip through the zero-copy
        :class:`~repro.parallel.image.TableImage` API (``to_image()`` /
        ``from_image()``) — the capability gate for snapshotting and the
        shared-memory :class:`~repro.parallel.WorkerPool`."""
        probe = getattr(self.cls, "supports_image", None)
        return bool(probe()) if callable(probe) else False

    @property
    def supports_incremental(self) -> bool:
        """True when instances service :meth:`apply_updates` with a real
        incremental engine (Poptrie's transactional subtree surgery);
        False means the correct, measured rebuild fallback — see
        ``stats()["update_engine"]`` and docs/ALGORITHMS.md."""
        probe = getattr(self.cls, "supports_incremental", None)
        return bool(probe()) if callable(probe) else False

    @property
    def supports_kernel(self) -> bool:
        """True when a stateless branchless batch kernel is registered
        for this structure class (see :mod:`repro.lookup.kernels`) — the
        capability gate for serving straight off image views."""
        return self.kernel is not None

    @property
    def kernel(self):
        """The :class:`~repro.lookup.kernels.LookupKernel` registered for
        this structure class, or ``None``."""
        from repro.lookup import kernels

        return kernels.kernel_for_class(self.cls)


_ENTRIES: Dict[str, AlgorithmEntry] = {}


def register(
    name: str,
    cls: Optional[type] = None,
    *,
    aggregate: bool = False,
    pass_fib_size: bool = False,
    **options,
):
    """Register ``cls`` (or decorate a class) under ``name``.

    Usable as a decorator factory (``@register("SAIL")``) or called
    directly for variants (``register("D16R", Dxr, s=16)``).  Duplicate
    names are rejected — the registry is the single source of truth.
    """

    def _add(target: type) -> type:
        if name in _ENTRIES:
            raise ValueError(f"algorithm {name!r} is already registered")
        _ENTRIES[name] = AlgorithmEntry(
            name=name,
            cls=target,
            options=dict(options),
            aggregate=aggregate,
            pass_fib_size=pass_fib_size,
        )
        return target

    if cls is not None:
        return _add(cls)
    return _add


def _ensure_builtins() -> None:
    """Import the modules whose classes self-register."""
    import repro.lookup  # noqa: F401  (imports every baseline module)
    import repro.core.poptrie  # noqa: F401  (registers the Poptrie variants)


def get(name: str) -> AlgorithmEntry:
    """The registered entry for ``name``; raises ``KeyError`` if unknown."""
    _ensure_builtins()
    try:
        return _ENTRIES[name]
    except KeyError:
        known = ", ".join(sorted(_ENTRIES))
        raise KeyError(f"unknown algorithm {name!r} (known: {known})") from None


def available() -> List[str]:
    """All registered algorithm names, in registration order."""
    _ensure_builtins()
    return list(_ENTRIES)


def standard_roster(
    rib,
    names: Sequence[str] = STANDARD_ALGORITHMS,
    aggregate_for_poptrie: bool = True,
    modified_dxr: bool = False,
) -> Dict[str, Optional[object]]:
    """Build the paper's comparison roster from one RIB.

    Entries flagged ``aggregate`` compile from the route-aggregated table
    (the paper's Poptrie default, Section 3); the baselines see the raw
    table, as they did in the paper.  A structure whose structural limit
    is exceeded maps to ``None`` — the Table 5 "N/A" case.
    """
    from repro.core.aggregate import aggregated_rib
    from repro.errors import StructuralLimitError

    aggregated = None
    fib_size = rib.max_fib_index() + 1
    roster: Dict[str, Optional[object]] = {}
    for name in names:
        entry = get(name)
        overrides: Dict[str, object] = {}
        if modified_dxr and name in _DXR_NAMES:
            overrides["modified"] = True
        if entry.pass_fib_size:
            overrides["fib_size"] = fib_size
        build_rib = rib
        if entry.aggregate and aggregate_for_poptrie:
            if aggregated is None:
                aggregated = aggregated_rib(rib)
            build_rib = aggregated
        try:
            roster[name] = entry.from_rib(build_rib, **overrides)
        except StructuralLimitError:
            roster[name] = None
    return roster


def build_structures(
    rib, names: Sequence[str] = STANDARD_ALGORITHMS, **kwargs
) -> List[object]:
    """Like :func:`standard_roster` but drops the N/A entries."""
    return [s for s in standard_roster(rib, names, **kwargs).values() if s]
