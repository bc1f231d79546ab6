"""Poptrie snapshots through the image API, and structural validation.

The ``RPIMG001`` byte format itself (magic, truncation, CRC) is covered
by ``tests/test_image.py``; this module checks what is Poptrie-specific:
every configuration round-trips, snapshots are compacted, and a
CRC-valid image with a nonsense header or broken arrays is refused.
"""

import io
import random

import pytest

from tests.conftest import make_random_rib, random_keys

from repro.core.poptrie import Poptrie, PoptrieConfig, validate
from repro.errors import ReproError, SnapshotFormatError
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.parallel.image import (
    TableImage,
    load_structure,
    save_structure,
    structure_from_bytes,
    structure_to_bytes,
)
from repro.robust.txn import TransactionalPoptrie


def _round_trip(trie: Poptrie) -> Poptrie:
    return structure_from_bytes(structure_to_bytes(trie))


@pytest.mark.parametrize(
    "config",
    [
        PoptrieConfig(s=18),
        PoptrieConfig(s=0),
        PoptrieConfig(s=16, use_leafvec=False),
        PoptrieConfig(s=16, leaf_bits=32),
        PoptrieConfig(k=2, s=0),
    ],
)
def test_roundtrip_preserves_lookups(bgp_rib, config):
    original = Poptrie.from_rib(bgp_rib, config)
    thawed = _round_trip(original)
    assert thawed.config == config
    for key in random_keys(4000, seed=1):
        assert thawed.lookup(key) == original.lookup(key)


def test_roundtrip_preserves_counts(bgp_rib):
    original = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16))
    thawed = _round_trip(original)
    assert thawed.inode_count == original.inode_count
    assert thawed.leaf_count == original.leaf_count
    assert thawed.memory_bytes() == original.memory_bytes()


def test_roundtrip_ipv6():
    rib = make_random_rib(200, seed=2, width=128, lengths=[32, 48, 64])
    original = Poptrie.from_rib(rib, PoptrieConfig(s=16))
    thawed = _round_trip(original)
    for key in random_keys(500, seed=3, width=128):
        assert thawed.lookup(key) == rib.lookup(key)


def test_empty_tables():
    for s in (0, 12):
        trie = Poptrie.from_rib(Rib(), PoptrieConfig(s=s))
        thawed = _round_trip(trie)
        assert thawed.lookup(0x01020304) == 0


def test_fragmented_trie_compacts():
    """A heavily updated trie snapshots into a tight layout."""
    up = TransactionalPoptrie(PoptrieConfig(s=12))
    rng = random.Random(4)
    live = []
    for _ in range(600):
        if live and rng.random() < 0.45:
            up.withdraw(live.pop(rng.randrange(len(live))))
        else:
            length = rng.randint(1, 32)
            prefix = Prefix(rng.getrandbits(length) << (32 - length), length, 32)
            if not up.rib.get(prefix):
                live.append(prefix)
            up.announce(prefix, rng.randint(1, 30))
    thawed = _round_trip(up.trie)
    assert thawed.allocated_bytes() <= up.trie.allocated_bytes()
    fresh = Poptrie.from_rib(up.rib, PoptrieConfig(s=12))
    assert thawed.inode_count == fresh.inode_count
    assert thawed.leaf_count == fresh.leaf_count
    for key in random_keys(3000, seed=5):
        assert thawed.lookup(key) == up.rib.lookup(key)


def test_file_and_stream_io(bgp_rib, tmp_path):
    trie = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16))
    path = str(tmp_path / "fib.poptrie")
    written = save_structure(trie, path)
    assert written > 0
    thawed = load_structure(path)
    assert thawed.inode_count == trie.inode_count

    buffer = io.BytesIO()
    save_structure(trie, buffer)
    buffer.seek(0)
    assert load_structure(buffer).leaf_count == trie.leaf_count


class TestCorruption:
    def test_corrupt_snapshot_is_the_typed_error(self, bgp_rib):
        blob = structure_to_bytes(Poptrie.from_rib(bgp_rib, PoptrieConfig(s=12)))
        with pytest.raises(SnapshotFormatError) as caught:
            structure_from_bytes(blob[: len(blob) // 2])
        assert isinstance(caught.value, ReproError)
        assert isinstance(caught.value, ValueError)

    def test_bad_header_values_rejected(self, bgp_rib):
        """A CRC-valid image with nonsense config fields is rejected
        with a header diagnostic, not a raw ValueError from PoptrieConfig."""
        image = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=12)).to_image()
        forged = TableImage.build(
            kind=image.kind,
            class_path=image.class_path,
            algorithm=image.algorithm,
            width=image.width,
            meta={**image.meta, "k": 63},  # k=63 is structurally absurd
            segments={
                name: image.segment(name) for name in image.segment_names()
            },
        )
        with pytest.raises(SnapshotFormatError, match="invalid poptrie image"):
            structure_from_bytes(forged.to_bytes())


class TestValidate:
    def test_fresh_trie_validates(self, bgp_rib):
        validate(Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16)))

    def test_detects_out_of_bounds_child(self, bgp_rib):
        trie = Poptrie.from_rib(bgp_rib, PoptrieConfig(s=16))
        # Corrupt a node with children to point its block out of bounds.
        for index, vector, _, _, _ in trie.iter_nodes():
            if vector:
                trie.base1[index] = len(trie.vec) + 100
                break
        with pytest.raises(SnapshotFormatError, match="overflows"):
            validate(trie)

    def test_detects_broken_leafvec_run(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=0))
        trie.lvec[trie.root_index] = 0  # no run starts at all
        with pytest.raises(SnapshotFormatError, match="no run start"):
            validate(trie)
