"""The common interface of every lookup structure in the library.

Poptrie and each baseline compile from a :class:`repro.net.rib.Rib` and
resolve integer addresses to FIB indices.  The benchmark harness, the
cross-algorithm equivalence tests and the cycle simulator all program
against this interface only.

Five contracts live here:

- **Uniform constructors.**  Every ``from_rib(rib, config=None,
  **options)`` accepts the structure's typed config dataclass (a
  :class:`StructureConfig` subclass, like ``PoptrieConfig``) or the same
  options as keywords; unknown option names raise ``TypeError``.  The
  per-structure options are tabulated in docs/API.md.
- **Batch input.**  :meth:`LookupStructure.lookup_batch` accepts any
  sequence of integer addresses — a plain ``list[int]``, any integer
  numpy array, or an object-dtype array of Python ints — and normalizes
  it once (:func:`normalize_batch_keys`) before running the structure's
  branchless kernel, or the scalar loop when none serves it
  (:meth:`_lookup_batch`).  IPv4 keys travel as ``uint64`` arrays; IPv6
  keys stay arbitrary-precision Python ints in an object array, which
  the kernel splits into ``(hi, lo)`` uint64 columns
  (:func:`repro.lookup.kernels.split_v6`).
- **Observability.**  :meth:`LookupStructure.stats` returns a stable
  per-structure snapshot, and :meth:`enable_obs` installs per-instance
  lookup instrumentation (counts, depth histograms) against the active
  :mod:`repro.obs` registry.  While disabled, the scalar lookup path is
  byte-for-byte the uninstrumented method — zero overhead.
- **Route updates.**  :meth:`LookupStructure.apply_updates` takes §3.5's
  order: check, stage off to the side, publish with one write; the
  update pipeline journals between stage and publish.
- **Registration.**  Structures self-register with
  :mod:`repro.lookup.registry` so the benchmark harness, the CLI and the
  tests share one roster.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

import numpy as np

from repro.errors import ReproError, StructuralLimitError, UpdateRejectedError
from repro.mem.layout import AccessTrace
from repro.net.rib import Rib


def normalize_batch_keys(keys, width: int = 32) -> np.ndarray:
    """Normalize a batch-key sequence to the engines' canonical dtype.

    The :meth:`LookupStructure.lookup_batch` input contract: callers may
    pass a plain Python sequence of ints, any integer-dtype numpy array,
    or an object-dtype array of Python ints; this helper converts all of
    them to the one representation the batch paths consume:

    - ``width <= 64`` (IPv4): a contiguous ``uint64`` array.  Every key
      is a machine word; kernels index arrays with it directly.
    - ``width > 64`` (IPv6): an object-dtype array of Python ints.
      128-bit keys do not fit a numpy scalar, so the kernel splits them
      into ``(hi, lo)`` uint64 columns
      (:func:`repro.lookup.kernels.split_v6`).

    Float or otherwise non-integer inputs raise ``TypeError`` — silently
    truncating 10.5 to address 10 would mask caller bugs.
    """
    if isinstance(keys, np.ndarray) and keys.dtype != object:
        if not np.issubdtype(keys.dtype, np.integer):
            raise TypeError(
                f"batch keys must be integers, not {keys.dtype}"
            )
        if width <= 64:
            if keys.dtype == np.uint64:
                return np.ascontiguousarray(keys)
            return keys.astype(np.uint64)
        out = np.empty(len(keys), dtype=object)
        for i, key in enumerate(keys):
            out[i] = int(key)
        return out
    # list/tuple of ints, or an object-dtype array of Python ints.
    if width <= 64:
        return np.fromiter(
            (_as_int_key(key) for key in keys),
            dtype=np.uint64,
            count=len(keys),
        )
    out = np.empty(len(keys), dtype=object)
    for i, key in enumerate(keys):
        out[i] = _as_int_key(key)
    return out


def check_fib_capacity(structure, max_fib: int) -> None:
    """Raise :class:`~repro.errors.StructuralLimitError` when ``max_fib``
    exceeds the ``fib_limit`` of ``structure`` (a structure class, or an
    instance when the limit depends on its build options)."""
    if max_fib > structure.fib_limit:
        raise StructuralLimitError(
            f"{structure.name}: FIB index {max_fib} exceeds the "
            f"next-hop limit {structure.fib_limit}"
        )


def scalar_batch(lookup, keys) -> np.ndarray:
    """The per-key loop: ``lookup(key)`` for each normalized key, as a
    uint32 array — the batch path of structures without a kernel, and
    the oracle the kernels are held to."""
    return np.fromiter(
        (lookup(int(key)) for key in keys), dtype=np.uint32, count=len(keys)
    )


def _as_int_key(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key)
    raise TypeError(f"batch keys must be integers, not {type(key).__name__}")


@dataclass(frozen=True)
class StructureConfig:
    """Base class for per-structure build options.

    Subclasses are frozen dataclasses whose fields *are* the structure's
    option surface; :meth:`resolve` merges an optional config instance
    with keyword overrides and — because dataclass constructors reject
    unknown names — raises ``TypeError`` on any misspelled option.
    """

    @classmethod
    def resolve(
        cls, config: Optional["StructureConfig"], options: Dict[str, object]
    ) -> "StructureConfig":
        if config is None:
            return cls(**options)
        if not isinstance(config, cls):
            raise TypeError(
                f"expected {cls.__name__}, got {type(config).__name__}"
            )
        if options:
            return dataclasses.replace(config, **options)
        return config


@dataclass(frozen=True)
class NoOptions(StructureConfig):
    """The empty config of structures without build options."""


class Staged(NamedTuple):
    """A message :meth:`LookupStructure._stage` ran every fallible step
    of, unseen by readers.  ``publish()`` cannot fail; ``abandon()``
    undoes the stage and its RIB changes."""

    publish: Callable[[], None]
    abandon: Callable[[], None]


class LookupStructure(abc.ABC):
    """Abstract base for longest-prefix-match structures.

    Subclasses must implement :meth:`lookup`, :meth:`memory_bytes` and the
    :meth:`from_rib` constructor.  :meth:`lookup_traced` (for the cycle
    simulator) defaults to the scalar path, and :meth:`lookup_batch`
    runs the class's registered kernel or else the scalar loop, so
    partial implementations stay usable.
    """

    #: Human-readable name used in benchmark reports ("Poptrie18", "D16R"...).
    name: str = "abstract"

    #: Address width in bits (32 = IPv4, 128 = IPv6).  IPv4-only
    #: structures inherit the default; the others set it from the RIB.
    width: int = 32

    #: The largest next-hop (FIB) index the structure can encode, read
    #: by :func:`check_fib_capacity` and the update check alike.
    fib_limit: int = (1 << 32) - 1

    #: The registry the instance was instrumented against (None = not
    #: observed; the hot path is then completely untouched).
    _obs_registry = None

    #: The attached :class:`~repro.net.values.ValueTable` (None = the
    #: historical mode: leaf ids are opaque FIB indices).  The structure
    #: itself never reads it — leaves store ids either way — so the
    #: lookup hot paths and the kernels are unaffected.
    values = None

    @classmethod
    @abc.abstractmethod
    def from_rib(cls, rib: Rib, config=None, **options) -> "LookupStructure":
        """Compile the structure from a RIB.

        ``config`` is the structure's :class:`StructureConfig` subclass;
        the same options may be given as keywords instead.  Unknown
        option names raise ``TypeError``.
        """

    @abc.abstractmethod
    def lookup(self, key: int) -> int:
        """Longest-prefix-match ``key`` to a FIB index (0 = no route)."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Data-structure footprint in bytes, as compared in Table 3."""

    def lookup_traced(self, key: int, trace: AccessTrace) -> int:
        """Lookup while recording memory accesses; default: no trace."""
        return self.lookup(key)

    def lookup_batch(self, keys) -> np.ndarray:
        """Resolve a batch of keys to FIB indices (uint32 array).

        The public batch entry point.  ``keys`` may be a plain sequence
        of Python ints, any integer numpy array, or an object-dtype
        array — :func:`normalize_batch_keys` converts it once to the
        canonical dtype (uint64 for widths up to 64 bits, object array
        of Python ints beyond) before dispatching to
        :meth:`_lookup_batch`.  Results are identical to calling
        :meth:`lookup` per key; the conformance test in
        ``tests/test_batch_contract.py`` holds every registered
        algorithm to this.
        """
        return self._lookup_batch(normalize_batch_keys(keys, self.width))

    def _lookup_batch(self, keys: np.ndarray) -> np.ndarray:
        """The one batch dispatch, over *normalized* keys: the kernel
        registered for this class when it takes this width (see
        :mod:`repro.lookup.kernels`), else the scalar loop.  The kernel
        state is rebuilt per call because updates may reallocate the
        live arrays."""
        kernel = self._batch_kernel()
        if kernel is not None:
            return kernel.lookup_batch(kernel.state_from_structure(self), keys)
        return scalar_batch(self.lookup, keys)

    def _batch_kernel(self):
        """The kernel that serves this structure's class and width, or
        None."""
        from repro.lookup import kernels

        kernel = kernels.kernel_for_class(type(self))
        if kernel is not None and kernel.supports_width(self.width):
            return kernel
        return None

    def supports_batch(self) -> bool:
        """True when :meth:`lookup_batch` runs a kernel for this
        structure's width rather than the scalar loop."""
        return self._batch_kernel() is not None

    @classmethod
    def supports_kernel(cls) -> bool:
        """True when a stateless branchless kernel is registered for this
        structure class (see :mod:`repro.lookup.kernels`).  The registry
        mirrors this as ``AlgorithmEntry.supports_kernel``."""
        from repro.lookup import kernels

        return kernels.kernel_for_class(cls) is not None

    def batch_engine(self) -> str:
        """Which path a :meth:`lookup_batch` call takes:
        ``"kernel:<name>"`` or ``"scalar"`` (the per-key loop)."""
        kernel = self._batch_kernel()
        return "scalar" if kernel is None else f"kernel:{kernel.name}"

    def memory_mib(self) -> float:
        return self.memory_bytes() / (1 << 20)

    # -- the value plane -----------------------------------------------------

    def attach_values(self, values) -> None:
        """Attach (or detach, with ``None``) a typed value side-table.

        The table gives meaning to the ids :meth:`lookup` returns; it
        travels with the structure through :meth:`to_image` /
        :meth:`from_image` and is resolved only at the edge
        (:meth:`lookup_value`, the CLI, service clients).
        """
        from repro.net.values import ValueTable

        if values is not None and not isinstance(values, ValueTable):
            raise TypeError(
                f"values must be a ValueTable or None, "
                f"not {type(values).__name__}"
            )
        self.values = values

    def lookup_value(self, key: int):
        """Longest-prefix-match ``key`` to its *payload*.

        With a value table attached this resolves the leaf id through it
        (``None`` on a miss); without one it returns the raw id — the
        identity value plane, which is also how images without a value
        segment load (docs/VALUES.md).
        """
        index = self.lookup(key)
        if self.values is None:
            return index
        return self.values.get(index)

    def verify_against(
        self, rib: Rib, keys: Iterable[int]
    ) -> List[int]:
        """Return the keys (if any) where this structure disagrees with the
        RIB — the paper validated all algorithms against each other over the
        whole IPv4 space; the integration tests use this hook."""
        return [key for key in keys if self.lookup(key) != rib.lookup(key)]

    # -- route updates -------------------------------------------------------

    #: The RIB :meth:`apply_updates` keeps in sync (None = not updatable;
    #: :meth:`bind_rib` or the registry's ``from_rib`` set it).
    rib = None

    #: Rebuild closure installed by :meth:`bind_rib` — recompiles this
    #: structure from the (mutated) RIB with its original build options.
    #: None falls back to ``type(self).from_rib`` with default options.
    _update_rebuild = None

    #: Updates published, for :meth:`stats` (class attr: the zero).
    _updates_applied = 0

    #: True when lookups walk :attr:`rib` itself (Radix), so the rebuild
    #: engine's stage must leave the RIB alone and publish folds it.
    walks_rib = False

    def bind_rib(self, rib: Rib, rebuild=None) -> "LookupStructure":
        """Bind the RIB that :meth:`apply_updates` mutates.

        ``rebuild``, when given, is a callable ``rib -> structure``
        recompiling this structure class with the same build options —
        the rebuild engine uses it to stay faithful to how the
        instance was originally built.  The registry's
        ``AlgorithmEntry.from_rib`` binds both automatically, so
        registry-built structures are updatable out of the box.
        Returns ``self`` for chaining.
        """
        self.rib = rib
        self._update_rebuild = rebuild
        return self

    @classmethod
    def supports_incremental(cls) -> bool:
        """True when this structure has a real incremental update engine
        (it overrides the :meth:`_stage` hook, like Poptrie's
        transactional subtree surgery).  Structures without one still
        accept :meth:`apply_updates` — through the correct, measured
        rebuild engine — so the flag distinguishes *cost*, not
        *capability*.  The registry mirrors this as
        ``AlgorithmEntry.supports_incremental``."""
        return cls._stage is not LookupStructure._stage

    def update_engine(self) -> str:
        """Which engine an :meth:`apply_updates` call would use:
        ``"incremental"`` (surgical subtree replacement) or ``"rebuild"``
        (mutate the bound RIB, recompile once per batch).  Reported in
        ``stats()["update_engine"]``."""
        return "incremental" if self.supports_incremental() else "rebuild"

    def apply_updates(self, updates, report=None) -> Dict[str, object]:
        """Apply a batch of route updates through one uniform surface.

        ``updates`` is an iterable of :class:`repro.data.updates.Update`
        messages; requires a bound RIB (:meth:`bind_rib`).  The batch is
        checked in order (:func:`repro.data.updates.check_message`, up
        to :attr:`fib_limit`), staged (:meth:`_stage`) and published.
        Returns a report dict with ``applied``, ``degraded``,
        ``rejected``, ``errors`` (1-based ``(position, reason)`` pairs)
        and ``engine``; refused updates go to ``report.refuse`` (by
        default a fresh ``StreamReport``, which counts them).
        """
        if self.rib is None:
            raise UpdateRejectedError(
                f"{type(self).__name__} has no RIB bound; call "
                "bind_rib(rib) (the registry's from_rib does this "
                "automatically)"
            )
        report = StreamReport() if report is None else report
        accepted, positions = check_message(
            updates, self.rib, self.fib_limit, report
        )
        staged = self._stage(accepted, positions, report) if accepted else None
        if staged is not None:
            staged.publish()
        report.errors.sort()
        return {**vars(report), "engine": self.update_engine()}

    def _stage(self, updates: list, positions: list, report) -> Optional[Staged]:
        """Stage checked updates and return them :class:`Staged`, or
        refuse each at its position in ``report`` and return ``None``;
        publishing counts them into ``report``.

        The default is the rebuild engine: fold the message into
        :attr:`rib` and compile the new table, undoing the fold if the
        compile fails (a structural limit); publish adopts the table
        with one ``__dict__`` rebind.  A structure that :attr:`walks_rib`
        compiles first and folds at publish, so its readers never see a
        staged route.  Subclasses with a cheaper engine override this
        (and thereby flip :meth:`supports_incremental`).
        """
        from repro.data.updates import fold_updates, unfold_updates

        rib = self.rib
        undo = [] if self.walks_rib else fold_updates(rib, updates)
        rebuild = self._update_rebuild or type(self).from_rib
        try:
            rebuilt = rebuild(rib)
        except ReproError as error:
            unfold_updates(rib, undo)
            for position in positions:
                report.refuse(position, error)
            return None

        def publish() -> None:
            if self.walks_rib:
                fold_updates(rib, updates)
            self._adopt_state(rebuilt)
            self._updates_applied += len(updates)
            report.applied += len(updates)

        return Staged(publish, lambda: unfold_updates(rib, undo))

    def _adopt_state(self, rebuilt: "LookupStructure") -> None:
        """Take over ``rebuilt``'s state while keeping ``self``'s identity.

        Works for every structure in the registry because none of them
        define ``__slots__`` — instance state lives entirely in
        ``__dict__``.  The update bindings, counters and per-instance
        observability survive the adoption (wrappers are re-installed
        against the new state).

        The replacement state is assembled off to the side and published
        with a single ``__dict__`` rebind: under the GIL that store is
        atomic, so a concurrent reader (a served structure mid
        ``lookup_batch`` on another thread) sees either the old complete
        state or the new complete state, never an empty or half-copied
        one.
        """
        if type(rebuilt) is not type(self):
            raise TypeError(
                f"cannot adopt {type(rebuilt).__name__} state into "
                f"{type(self).__name__}"
            )
        reg = self._obs_registry
        values = self.values
        new = dict(rebuilt.__dict__)
        # The donor's own wrappers/bindings must not leak through.
        for key in ("lookup", "lookup_batch", "_obs_registry"):
            new.pop(key, None)
        new["rib"] = self.rib
        new["_update_rebuild"] = self._update_rebuild
        new["_updates_applied"] = self._updates_applied
        if new.get("values") is None and values is not None:
            new["values"] = values
        self.__dict__ = new
        if reg is not None:
            self.enable_obs(reg)

    # -- zero-copy table images ----------------------------------------------

    @classmethod
    def supports_image(cls) -> bool:
        """True when this structure can round-trip through a
        :class:`~repro.parallel.image.TableImage` (it overrides the
        :meth:`_image_state` / :meth:`_from_image_state` hooks).  The
        registry mirrors this as ``AlgorithmEntry.supports_image``."""
        return cls._image_state is not LookupStructure._image_state

    def to_image(self):
        """Export this structure's backing arrays as a
        :class:`~repro.parallel.image.TableImage`.

        The image is versioned, checksummed and self-describing; it is
        the one blessed persistence surface (see docs/PARALLEL.md) and
        the unit the shared-memory :class:`~repro.parallel.WorkerPool`
        distributes to lookup workers.  Raises ``TypeError`` for
        structures without image support.
        """
        from repro.parallel.image import TableImage

        if not self.supports_image():
            raise TypeError(
                f"{type(self).__name__} does not support table images"
            )
        meta, segments = self._image_state()
        if self.values is not None:
            # The value side-table rides along under a reserved segment
            # prefix plus one meta key.  Kernels and _from_image_state
            # select segments by name, so the extra segments are inert
            # for them; from_image() strips and decodes them.
            vmeta, vsegs = self.values.to_segments()
            meta = {**meta, "values": vmeta}
            segments = dict(segments)
            for name, arr in vsegs.items():
                segments[f"values/{name}"] = arr
        return TableImage.build(
            kind="structure",
            class_path=f"{type(self).__module__}:{type(self).__qualname__}",
            algorithm=self.name,
            width=self.width,
            meta=meta,
            segments=segments,
        )

    @classmethod
    def from_image(cls, image, *, copy: bool = True) -> "LookupStructure":
        """Reconstruct a structure from a :class:`TableImage`.

        ``copy=True`` materializes private, mutable arrays (the
        persistence path — equivalent to the historical snapshot load);
        ``copy=False`` wraps the image's buffer in read-only views, so
        the structure shares memory with the image (the data-plane path
        used by pool workers attaching to shared memory; the structure
        must then be treated as frozen).
        """
        from repro.errors import SnapshotFormatError

        if not cls.supports_image():
            raise TypeError(
                f"{cls.__name__} does not support table images"
            )
        if image.kind != "structure":
            raise SnapshotFormatError(
                f"image holds a {image.kind!r} payload, not a structure"
            )
        # Split the optional value plane off before the structure hook:
        # pre-value-plane images simply have neither the meta key nor the
        # "values/" segments and load with values=None (identity ids).
        meta = dict(image.meta)
        vmeta = meta.pop("values", None)
        segments = {}
        vsegs = {}
        for name in image.segment_names():
            if name.startswith("values/"):
                vsegs[name[len("values/"):]] = image.segment(name)
            else:
                segments[name] = image.segment(name)
        if vmeta is None and vsegs:
            raise SnapshotFormatError(
                "image has value segments but no 'values' meta"
            )
        structure = cls._from_image_state(meta, segments, copy=copy)
        if vmeta is not None:
            from repro.net.values import ValueTable

            structure.attach_values(ValueTable.from_segments(vmeta, vsegs))
        return structure

    def _image_state(self):
        """Subclass hook: ``(meta, segments)`` for :meth:`to_image`.

        ``meta`` is a dict of JSON scalars, ``segments`` an ordered dict
        of name → ``array.array`` / numpy array.  Only structures whose
        state is flat typed arrays can implement this; pointer-chasing
        structures (Radix, Patricia...) cannot, and inherit the base
        implementation as their "unsupported" marker.
        """
        raise NotImplementedError

    @classmethod
    def _from_image_state(cls, meta, segments, *, copy: bool):
        """Subclass hook: rebuild an instance from image state."""
        raise NotImplementedError

    # -- observability -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """A stable snapshot of this structure's state and counters.

        The base schema — ``name``, ``type``, ``memory_bytes``,
        ``memory_mib``, ``observed``, ``lookups``, ``batch_keys``,
        ``batch_engine``, ``update_engine``, ``updates_applied``,
        ``values`` (the attached value table's
        ``describe()``, or None) — is identical for every structure (the lookup counters are 0 unless
        :meth:`enable_obs` is active); subclasses extend it via
        :meth:`_extra_stats`.  When observability is enabled this also
        refreshes the structure's gauges in the active registry, so a
        Prometheus dump taken right after ``stats()`` is current.
        """
        from repro import obs

        observed = self._obs_registry is not None
        lookups = batch_keys = 0
        if observed:
            reg = self._obs_registry
            lookups = reg.counter(
                "repro_lookups_total", structure=self.name
            ).value
            batch_keys = reg.counter(
                "repro_lookup_batch_keys_total", structure=self.name
            ).value
        memory = self.memory_bytes()
        if obs.enabled():
            obs.registry().gauge(
                "repro_structure_memory_bytes",
                "Data-structure footprint as reported in Table 3.",
                structure=self.name,
            ).set(memory)
        data: Dict[str, object] = {
            "name": self.name,
            "type": type(self).__name__,
            "memory_bytes": memory,
            "memory_mib": memory / (1 << 20),
            "observed": observed,
            "lookups": lookups,
            "batch_keys": batch_keys,
            "batch_engine": self.batch_engine(),
            "update_engine": self.update_engine(),
            "updates_applied": self._updates_applied,
            "values": (
                None if self.values is None else self.values.describe()
            ),
        }
        data.update(self._extra_stats())
        return data

    def _extra_stats(self) -> Dict[str, object]:
        """Subclass hook: structure-specific stats() keys."""
        return {}

    def enable_obs(self, registry=None) -> None:
        """Instrument this instance's ``lookup``/``lookup_batch``.

        Installs per-instance wrappers that count lookups, misses and
        batch sizes — and, for structures exposing ``depth_of`` (Poptrie),
        a per-lookup depth histogram plus direct-hit/trie-walk split —
        into ``registry`` (default: the active :func:`repro.obs.registry`).
        The wrappers shadow the class methods through the instance
        ``__dict__``; uninstrumented instances are untouched, so the
        disabled scalar path pays nothing.  Observation roughly doubles
        the per-lookup cost for depth-reporting structures (the depth is
        re-derived by a second traversal).
        """
        from repro import obs

        reg = registry if registry is not None else obs.registry()
        self.disable_obs()
        labels = {"structure": self.name}
        lookups = reg.counter(
            "repro_lookups_total", "Scalar lookups served.", **labels
        )
        misses = reg.counter(
            "repro_lookup_no_route_total", "Lookups that matched no route.",
            **labels,
        )
        batches = reg.counter(
            "repro_lookup_batches_total", "lookup_batch() calls.", **labels
        )
        batch_keys = reg.counter(
            "repro_lookup_batch_keys_total", "Keys resolved in batches.",
            **labels,
        )
        depth_of = getattr(self, "depth_of", None)
        if depth_of is not None:
            depth_hist = reg.histogram(
                "repro_lookup_depth",
                "Internal nodes traversed per lookup (0 = direct hit).",
                buckets=obs.DEPTH_BUCKETS,
                **labels,
            )
            direct_hits = reg.counter(
                "repro_lookup_direct_hits_total",
                "Lookups resolved by the direct-pointing array.",
                **labels,
            )
            trie_walks = reg.counter(
                "repro_lookup_trie_walks_total",
                "Lookups that descended into the trie.",
                **labels,
            )
        scalar = type(self).lookup.__get__(self)
        if self.supports_batch():
            batch = type(self).lookup_batch.__get__(self)
        else:
            # The scalar loop in _lookup_batch calls self.lookup, which
            # would resolve to the observed wrapper and double-count every
            # key — loop over the unwrapped scalar method instead.
            def batch(keys):
                return scalar_batch(
                    scalar, normalize_batch_keys(keys, self.width)
                )

        def observed_lookup(key: int) -> int:
            result = scalar(key)
            lookups.inc()
            if not result:
                misses.inc()
            if depth_of is not None:
                depth = depth_of(key)
                depth_hist.observe(depth)
                if depth:
                    trie_walks.inc()
                else:
                    direct_hits.inc()
            return result

        def observed_lookup_batch(keys):
            results = batch(keys)
            batches.inc()
            batch_keys.inc(len(results))
            misses.inc(int(np.count_nonzero(results == 0)))
            return results

        self.__dict__["lookup"] = observed_lookup
        self.__dict__["lookup_batch"] = observed_lookup_batch
        self._obs_registry = reg

    def disable_obs(self) -> None:
        """Remove instance instrumentation; the class methods take over."""
        self.__dict__.pop("lookup", None)
        self.__dict__.pop("lookup_batch", None)
        self._obs_registry = None

    def __getstate__(self):
        """Drop per-instance instrumentation: wrappers are closures over
        live registry objects and must not travel across processes.
        The rebuild closure goes for the same reason (it captures build
        options by reference); the bound RIB itself pickles fine."""
        state = self.__dict__.copy()
        for key in ("lookup", "lookup_batch", "_obs_registry",
                    "_update_rebuild"):
            state.pop(key, None)
        return state


# Imported last: repro.data.updates subclasses StructureConfig.
from repro.data.updates import StreamReport, check_message  # noqa: E402
