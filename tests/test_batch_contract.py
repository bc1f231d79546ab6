"""Registry-wide conformance test of the ``lookup_batch`` input contract.

Every algorithm in :func:`repro.lookup.registry.available` must accept
the same batch-key spellings — ``list[int]``, any integer numpy array,
an object-dtype array of Python ints — and resolve them identically to
its scalar ``lookup``.  The normalization itself
(:func:`repro.lookup.base.normalize_batch_keys`) is unit-tested first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synth import generate_table, generate_table_v6
from repro.data.traffic import random_addresses, random_addresses_v6
from repro.errors import StructuralLimitError
from repro.lookup import registry
from repro.lookup.base import normalize_batch_keys


class TestNormalizeBatchKeys:
    def test_list_of_ints_becomes_uint64(self):
        out = normalize_batch_keys([1, 2, 3])
        assert out.dtype == np.uint64
        assert out.tolist() == [1, 2, 3]

    def test_integer_arrays_of_any_dtype(self):
        for dtype in (np.uint8, np.int32, np.uint32, np.int64, np.uint64):
            out = normalize_batch_keys(np.array([7, 9], dtype=dtype))
            assert out.dtype == np.uint64
            assert out.tolist() == [7, 9]

    def test_uint64_array_is_not_copied(self):
        keys = np.array([1, 2, 3], dtype=np.uint64)
        assert normalize_batch_keys(keys) is keys

    def test_object_array_of_python_ints(self):
        keys = np.empty(2, dtype=object)
        keys[0], keys[1] = 5, 6
        out = normalize_batch_keys(keys)
        assert out.dtype == np.uint64
        assert out.tolist() == [5, 6]

    def test_wide_keys_stay_python_ints(self):
        keys = [1 << 100, (1 << 128) - 1]
        out = normalize_batch_keys(keys, width=128)
        assert out.dtype == object
        assert list(out) == keys
        # Integer numpy input widens to object too.
        out = normalize_batch_keys(
            np.array([4, 5], dtype=np.uint64), width=128
        )
        assert out.dtype == object and list(out) == [4, 5]

    def test_floats_raise_type_error(self):
        with pytest.raises(TypeError):
            normalize_batch_keys([1, 10.5])
        with pytest.raises(TypeError):
            normalize_batch_keys(np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            normalize_batch_keys(["10.0.0.1"])

    def test_empty_batch(self):
        assert len(normalize_batch_keys([])) == 0


@pytest.fixture(scope="module")
def conformance_rib():
    rib, _ = generate_table(n_prefixes=600, n_nexthops=8, seed=23)
    return rib


@pytest.fixture(scope="module")
def conformance_keys():
    return [int(k) for k in random_addresses(256, seed=23)]


@pytest.fixture(scope="module")
def conformance_rib6():
    rib, _ = generate_table_v6(400, 8, seed=23)
    return rib


@pytest.fixture(scope="module")
def conformance_keys6(conformance_rib6):
    covered = [p.value for p, _ in list(conformance_rib6.routes())[:64]]
    return random_addresses_v6(192, seed=23) + covered


def _object_array(keys) -> np.ndarray:
    out = np.empty(len(keys), dtype=object)
    for i, key in enumerate(keys):
        out[i] = key
    return out


def _assert_spellings_agree(name, structure, spellings, expected):
    for spelling, keys in spellings.items():
        results = structure.lookup_batch(keys)
        assert isinstance(results, np.ndarray), spelling
        assert results.tolist() == expected, (
            f"{name}: lookup_batch({spelling}) disagrees with scalar lookup"
        )


@pytest.mark.parametrize("name", sorted(registry.available()))
def test_every_algorithm_accepts_all_batch_spellings(
    name, conformance_rib, conformance_keys
):
    structure = registry.get(name).from_rib(conformance_rib)
    expected = [structure.lookup(key) for key in conformance_keys]
    spellings = {
        "list": conformance_keys,
        "tuple": tuple(conformance_keys),
        "uint64": np.array(conformance_keys, dtype=np.uint64),
        "uint32": np.array(conformance_keys, dtype=np.uint32),
        "int64": np.array(conformance_keys, dtype=np.int64),
        "object": _object_array(conformance_keys),
    }
    _assert_spellings_agree(name, structure, spellings, expected)


@pytest.mark.parametrize("name", sorted(registry.available()))
def test_every_algorithm_accepts_all_batch_spellings_v6(
    name, conformance_rib6, conformance_keys6
):
    try:
        structure = registry.get(name).from_rib(conformance_rib6)
    except (StructuralLimitError, ValueError):
        pytest.skip(f"{name} does not build IPv6 tables")
    expected = [structure.lookup(key) for key in conformance_keys6]
    spellings = {
        "list": conformance_keys6,
        "tuple": tuple(conformance_keys6),
        "object": _object_array(conformance_keys6),
    }
    _assert_spellings_agree(name, structure, spellings, expected)
    # Integer numpy arrays widen to 128-bit keys too.
    small = [key >> 64 for key in conformance_keys6]
    _assert_spellings_agree(
        name, structure, {"uint64": np.array(small, dtype=np.uint64)},
        [structure.lookup(key) for key in small],
    )


@pytest.mark.parametrize("name", sorted(registry.available()))
def test_every_algorithm_rejects_float_keys(name, conformance_rib):
    structure = registry.get(name).from_rib(conformance_rib)
    with pytest.raises(TypeError):
        structure.lookup_batch([1.5, 2.5])


#: The registry entries a kernel serves, per address width.
KERNEL_SERVED = {
    32: {"Poptrie0", "Poptrie16", "Poptrie18", "DIR-24-8", "SAIL",
         "D16R", "D18R"},
    128: {"Poptrie0", "Poptrie16", "Poptrie18"},
}


def test_supports_batch_reflects_override(conformance_rib, conformance_rib6):
    """supports_batch() is true exactly when a kernel serves the
    structure's width; everything else runs the scalar loop."""
    for rib in (conformance_rib, conformance_rib6):
        for name in registry.available():
            try:
                structure = registry.get(name).from_rib(rib)
            except (StructuralLimitError, ValueError):
                continue
            served = name in KERNEL_SERVED[rib.width]
            assert structure.supports_batch() == served, (name, rib.width)
            engine = structure.batch_engine()
            assert engine.startswith("kernel:") == served, (name, engine)
            assert served or engine == "scalar", (name, engine)
            assert structure.lookup_batch([0]).dtype == np.uint32
