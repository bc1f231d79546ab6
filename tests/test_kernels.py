"""The stateless branchless kernels (`repro.lookup.kernels`).

Contract under test, registry-wide:

- every kernel-capable algorithm's batch path is lane-for-lane identical
  to its scalar ``lookup`` — on random RIBs, on adversarial ones
  (default-route-only, /32 swarms, covering-route shard slices), and on
  boundary keys;
- the same kernel produces identical results whether its state came
  from a live structure, a ``bytes`` image, an mmapped image file, or a
  ``SharedMemory`` segment;
- IPv6 Poptrie tables run the same kernel, descending ``(hi, lo)`` key
  columns, in-process, over attached images and in pool workers.
"""

from __future__ import annotations

import gc
import mmap

import numpy as np
import pytest

from tests.conftest import boundary_keys, make_random_rib, random_keys
from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.lookup import kernels, registry
from repro.lookup.kernels import BoundKernel, LookupKernel
from repro.net.prefix import Prefix
from repro.net.rib import Rib

#: Every registry entry expected to have a branchless kernel.
KERNEL_ALGORITHMS = (
    "Poptrie0", "Poptrie16", "Poptrie18", "DIR-24-8", "SAIL", "D16R", "D18R",
)


def scalar_oracle(structure, keys) -> np.ndarray:
    lookup = structure.lookup
    return np.fromiter(
        (lookup(int(key)) for key in keys), dtype=np.uint32, count=len(keys)
    )


def build(name: str, rib: Rib):
    entry = registry.get(name)
    return entry.from_rib(rib, **{})


@pytest.fixture(scope="module")
def rib() -> Rib:
    return make_random_rib(2500, seed=20150817)


@pytest.fixture(scope="module")
def keys(rib) -> np.ndarray:
    return np.array(
        random_keys(6000, seed=99) + boundary_keys(rib), dtype=np.uint64
    )


@pytest.fixture(scope="module")
def rib6() -> Rib:
    return make_random_rib(1200, seed=20151, width=128)


@pytest.fixture(scope="module")
def keys6(rib6) -> list:
    return random_keys(3000, seed=98, width=128) + boundary_keys(rib6)


class TestRegistrySurface:
    def test_kernel_capable_entries(self):
        capable = {
            name for name in registry.available()
            if registry.get(name).supports_kernel
        }
        assert capable == set(KERNEL_ALGORITHMS)

    def test_entry_kernel_is_a_lookup_kernel(self):
        for name in KERNEL_ALGORITHMS:
            entry = registry.get(name)
            assert isinstance(entry.kernel, LookupKernel), name
            assert entry.cls.supports_kernel(), name

    def test_pointer_chasing_structures_have_no_kernel(self):
        entry = registry.get("Radix")
        assert entry.kernel is None
        assert not entry.supports_kernel

    def test_available_kernels_maps_class_paths(self):
        table = kernels.available_kernels()
        assert table["repro.core.poptrie:Poptrie"] == "poptrie"
        assert table["repro.lookup.dxr:Dxr"] == "dxr"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            kernels.register_kernel(
                "repro.core.poptrie:Poptrie", kernels.PoptrieKernel()
            )


class TestScalarAgreement:
    @pytest.mark.parametrize("name", KERNEL_ALGORITHMS)
    def test_random_rib(self, name, rib, keys):
        structure = build(name, rib)
        assert structure.batch_engine().startswith("kernel:")
        np.testing.assert_array_equal(
            structure.lookup_batch(keys), scalar_oracle(structure, keys)
        )

    @pytest.mark.parametrize("name", KERNEL_ALGORITHMS)
    def test_default_route_only(self, name, keys):
        rib = Rib(width=32)
        rib.insert(Prefix(0, 0, 32), 9)
        structure = build(name, rib)
        np.testing.assert_array_equal(
            structure.lookup_batch(keys), np.full(len(keys), 9, np.uint32)
        )

    @pytest.mark.parametrize("name", KERNEL_ALGORITHMS)
    def test_host_route_swarm(self, name):
        # /32s force maximum trie depth (and 2nd/3rd-level chunks in the
        # multi-level baselines); a default route beneath them exercises
        # the covering fallback on every miss.
        rib = make_random_rib(600, seed=5, lengths=[32, 32, 32, 24])
        rib.insert(Prefix(0, 0, 32), 3)
        structure = build(name, rib)
        probe = np.array(boundary_keys(rib), dtype=np.uint64)
        np.testing.assert_array_equal(
            structure.lookup_batch(probe), scalar_oracle(structure, probe)
        )

    @pytest.mark.parametrize("name", ("Poptrie18", "SAIL", "D16R"))
    def test_covering_route_shard_slices(self, name, rib, keys):
        # Shard RIBs replicate covering routes into each slice — lots of
        # short prefixes overlapping long ones at the slice edges.
        from repro.cluster.shard import build_shard_map, shard_rib

        shard_map = build_shard_map(rib, 4)
        for shard in shard_map.shards:
            piece = shard_rib(rib, shard)
            structure = build(name, piece)
            np.testing.assert_array_equal(
                structure.lookup_batch(keys), scalar_oracle(structure, keys)
            )

    def test_poptrie_config_matrix(self, rib, keys):
        kernel = kernels.kernel_for_class(Poptrie)
        for config in (
            PoptrieConfig(s=0),
            PoptrieConfig(s=16),
            PoptrieConfig(s=16, use_leafvec=False),
            PoptrieConfig(k=4, s=10),
            PoptrieConfig(s=16, leaf_bits=32),
        ):
            trie = Poptrie.from_rib(rib, config=config)
            state = kernel.state_from_structure(trie)
            np.testing.assert_array_equal(
                kernel.lookup_batch(state, keys),
                scalar_oracle(trie, keys),
            )

    def test_poptrie_v6_config_matrix(self, rib6, keys6):
        # s=0, s=18 and k=4/s=10 put a chunk across bit 64, so that
        # level is cut from both words; all but k=1 end in a chunk
        # padded past bit 128.
        kernel = kernels.kernel_for_class(Poptrie)
        for config in (
            PoptrieConfig(s=0),
            PoptrieConfig(s=18),
            PoptrieConfig(s=16, use_leafvec=False),
            PoptrieConfig(k=4, s=10),
            PoptrieConfig(k=1, s=5),
            PoptrieConfig(s=16, leaf_bits=32),
        ):
            trie = Poptrie.from_rib(rib6, config=config)
            state = kernel.state_from_structure(trie)
            np.testing.assert_array_equal(
                kernel.lookup_batch(state, np.array(keys6, dtype=object)),
                scalar_oracle(trie, keys6),
            )

    def test_v6_prepare_rejects_direct_beyond_64_bits(self, rib6):
        from repro.errors import SnapshotFormatError

        image = build("Poptrie16", rib6).to_image()
        segments = {n: image.segment(n) for n in image.segment_names()}
        meta = dict(image.meta, s=65)
        with pytest.raises(SnapshotFormatError):
            kernels.PoptrieKernel().prepare(meta, segments, width=128)

    def test_empty_batch(self, rib):
        structure = build("Poptrie18", rib)
        result = structure.lookup_batch(np.empty(0, dtype=np.uint64))
        assert result.dtype == np.uint32 and len(result) == 0

    def test_routeless_table(self, keys):
        structure = build("Poptrie18", Rib(width=32))
        assert not structure.lookup_batch(keys).any()


class TestImageAttachment:
    """One kernel, four state sources, identical results."""

    @pytest.mark.parametrize("name", ("Poptrie18", "D16R", "SAIL",
                                      "DIR-24-8", "Poptrie18-v6"))
    def test_bytes_mmap_shm_agree(self, name, request, tmp_path):
        from multiprocessing import shared_memory

        v6 = name.endswith("-v6")
        rib = request.getfixturevalue("rib6" if v6 else "rib")
        keys = request.getfixturevalue("keys6" if v6 else "keys")
        structure = build(name.removesuffix("-v6"), rib)
        want = scalar_oracle(structure, keys)
        blob = structure.to_image().to_bytes()
        from repro.parallel.image import TableImage

        # bytes
        bound = kernels.attach(TableImage.open(blob))
        assert isinstance(bound, BoundKernel)
        np.testing.assert_array_equal(bound.lookup_batch(keys), want)
        assert bound.memory_bytes() == len(blob)
        # mmap
        path = tmp_path / "table.img"
        path.write_bytes(blob)
        with open(path, "rb") as stream:
            with mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ) as mm:
                mapped = kernels.attach(TableImage.open(mm))
                np.testing.assert_array_equal(
                    mapped.lookup_batch(keys), want
                )
                del mapped
                gc.collect()
        # SharedMemory
        shm = shared_memory.SharedMemory(create=True, size=len(blob))
        try:
            shm.buf[: len(blob)] = blob
            shared = kernels.attach(TableImage.open(shm.buf))
            np.testing.assert_array_equal(shared.lookup_batch(keys), want)
            del shared
            gc.collect()
        finally:
            shm.close()
            shm.unlink()

    def test_bound_kernel_is_structure_shaped(self, rib):
        structure = build("Poptrie18", rib)
        bound = kernels.attach(structure.to_image())
        key = int(next(iter(rib.routes()))[0].first_address())
        assert bound.lookup(key) == structure.lookup(key)
        stats = bound.stats()
        assert stats["kernel"] == "poptrie"
        assert stats["name"] == structure.name
        assert bound.width == 32

    def test_bound_kernel_lookup_on_v6_image(self, rib6, keys6):
        structure = build("Poptrie18", rib6)
        bound = kernels.attach(structure.to_image())
        assert bound.width == 128
        for key in keys6[:200] + [(1 << 128) - 1, 1 << 127, (1 << 64) + 1]:
            assert bound.lookup(key) == structure.lookup(key), hex(key)

    def test_attach_rejects_unsupported_width(self, rib6):
        # DXR builds and exports IPv6 tables, but its kernel computes
        # 32-bit keys only — attach must refuse, exactly like to_image's
        # TypeError convention for unsupported structures.
        image = registry.get("D16R").from_rib(rib6, modified=True).to_image()
        assert image.width == 128
        assert registry.get("D16R").supports_kernel
        assert kernels.kernel_for(image) is None
        with pytest.raises(TypeError):
            kernels.attach(image)

    def test_kernel_for_ignores_foreign_kinds(self, rib):
        class FakeImage:
            kind = "journal"
            class_path = "repro.core.poptrie:Poptrie"
            width = 32

        assert kernels.kernel_for(FakeImage()) is None

    def test_corrupt_segments_rejected(self, rib):
        from repro.errors import SnapshotFormatError

        structure = build("Poptrie18", rib)
        image = structure.to_image()
        segments = {n: image.segment(n) for n in image.segment_names()}
        segments["vec"] = segments["vec"][:-1]  # truncated node array
        kernel = kernels.kernel_for(image)
        with pytest.raises(SnapshotFormatError):
            kernel.prepare(image.meta, segments, width=image.width)


class TestPoolIntegration:
    def test_workers_serve_from_kernels(self, rib, keys):
        from repro import obs
        from repro.parallel import PoolConfig, WorkerPool

        structure = build("Poptrie18", rib)
        want = structure.lookup_batch(keys)
        obs.disable()
        registry_ = obs.enable()
        try:
            with WorkerPool(
                structure, PoolConfig(workers=2, min_shard=64)
            ) as pool:
                engines = pool.stats()["engines"]
                assert set(engines.values()) == {"kernel:poptrie"}
                np.testing.assert_array_equal(pool.lookup_batch(keys), want)
                pool.publish(structure)
                assert pool.stats()["engines"]["0"] == "kernel:poptrie"
                np.testing.assert_array_equal(pool.lookup_batch(keys), want)
            snapshot = registry_.snapshot()
            served = [
                key for key in snapshot
                if key.startswith("repro_pool_engine_batches_total")
            ]
            assert served and all('engine="kernel:poptrie"' in k
                                  for k in served)
        finally:
            obs.disable()

    def test_v6_workers_serve_from_kernels(self, rib6, keys6):
        from repro.parallel import PoolConfig, WorkerPool

        structure = build("Poptrie18", rib6)
        want = scalar_oracle(structure, keys6)
        with WorkerPool(
            structure, PoolConfig(workers=2, min_shard=64)
        ) as pool:
            assert set(pool.stats()["engines"].values()) == {
                "kernel:poptrie"
            }
            np.testing.assert_array_equal(pool.lookup_batch(keys6), want)

    def test_structure_fallback_without_kernel(self, rib, keys, monkeypatch):
        # An image whose class has no registered kernel must fall back
        # to the zero-copy structure attach — and say so.  Forked
        # workers inherit the parent's (monkeypatched) kernel registry.
        from multiprocessing import get_all_start_methods

        from repro.parallel import PoolConfig, WorkerPool

        if "fork" not in get_all_start_methods():
            pytest.skip("fallback injection needs fork workers")
        structure = build("Poptrie18", rib)
        want = scalar_oracle(structure, keys)
        monkeypatch.delitem(kernels._KERNELS, "repro.core.poptrie:Poptrie")
        with WorkerPool(
            structure, PoolConfig(workers=1, start_method="fork")
        ) as pool:
            assert pool.stats()["engines"]["0"] == "structure:Poptrie"
            np.testing.assert_array_equal(pool.lookup_batch(keys), want)
