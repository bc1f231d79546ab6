"""The zero-copy ``TableImage`` API (repro.parallel.image).

Three properties under test:

- **Format robustness** — ``TableImage.open`` rejects every corruption
  we can synthesize (bad magic, truncation, CRC flips, bad version,
  malformed segment tables) with :class:`SnapshotFormatError`, never a
  wrong-but-plausible structure.
- **Registry-wide round-trip** — every ``supports_image`` entry in the
  algorithm registry survives ``to_image → bytes → open → from_image``
  with a fingerprint-identical image and ``lookup_batch`` agreement on a
  random key sweep, for both ``copy=True`` (persistence) and
  ``copy=False`` (the data plane's zero-copy attach).
- **One format** — :func:`structure_from_bytes` reads ``RPIMG001`` and
  rejects anything else, including a leftover file in the retired
  pre-image snapshot format.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np
import pytest

from tests.conftest import make_random_rib

from repro.core.poptrie import Poptrie, PoptrieConfig
from repro.errors import SnapshotFormatError
from repro.lookup import registry
from repro.parallel.image import (
    MAGIC,
    TableImage,
    image_to_structure,
    load_structure,
    save_structure,
    structure_from_bytes,
    structure_to_bytes,
)

RIB = make_random_rib(600, seed=411)
KEYS = np.random.default_rng(19).integers(0, 1 << 32, size=4096, dtype=np.uint64)


def _image_roster():
    """name → built structure, for every image-capable registry entry."""
    names = [
        name for name in registry.available()
        if registry.get(name).supports_image
    ]
    roster = registry.standard_roster(RIB, names)
    return {name: s for name, s in roster.items() if s is not None}


ROSTER = _image_roster()


def _sample_image() -> TableImage:
    trie = Poptrie.from_rib(RIB, PoptrieConfig(s=16))
    return trie.to_image()


class TestFormat:
    def test_magic_and_sniff(self, tmp_path):
        from repro.cli import _snapshot_kind

        blob = _sample_image().to_bytes()
        assert blob[:8] == MAGIC == b"RPIMG001"
        image_path = tmp_path / "table.img"
        image_path.write_bytes(blob)
        assert _snapshot_kind(str(image_path)) == "structure"
        text_path = tmp_path / "table.txt"
        text_path.write_text("not a snapshot\n")
        assert _snapshot_kind(str(text_path)) is None

    def test_deterministic_bytes_and_fingerprint(self):
        first, second = _sample_image(), _sample_image()
        assert first.to_bytes() == second.to_bytes()
        assert first.fingerprint() == second.fingerprint()

    def test_open_tolerates_trailing_slack(self):
        # Shared-memory segments are page-rounded; the recorded nbytes,
        # not the buffer length, bounds the image.
        blob = _sample_image().to_bytes()
        image = TableImage.open(blob + b"\0" * 4096)
        assert image.nbytes == len(blob)

    def test_bad_magic_rejected(self):
        blob = bytearray(_sample_image().to_bytes())
        blob[:8] = b"RPIMG999"
        with pytest.raises(SnapshotFormatError, match="magic"):
            TableImage.open(bytes(blob))

    @pytest.mark.parametrize("keep", [0, 4, 15, 40])
    def test_truncation_rejected(self, keep):
        blob = _sample_image().to_bytes()
        with pytest.raises(SnapshotFormatError, match="truncated"):
            TableImage.open(blob[:keep])

    def test_crc_flip_rejected_everywhere(self):
        blob = _sample_image().to_bytes()
        # Flip one bit in the header region, one mid-segment, one in the
        # stored CRC itself: every flip must be caught.
        for offset in (20, len(blob) // 2, len(blob) - 2):
            mangled = bytearray(blob)
            mangled[offset] ^= 0x40
            with pytest.raises(SnapshotFormatError):
                TableImage.open(bytes(mangled))

    def test_unverified_open_skips_crc(self):
        blob = bytearray(_sample_image().to_bytes())
        blob[-2] ^= 0x40  # corrupt the stored CRC only
        image = TableImage.open(bytes(blob), verify=False)
        assert image.kind == "structure"

    def test_bad_format_version_rejected(self):
        blob = _rewrite_header(
            _sample_image().to_bytes(), lambda h: h.update(format=99)
        )
        with pytest.raises(SnapshotFormatError, match="version"):
            TableImage.open(blob, verify=False)

    def test_segment_overflow_rejected(self):
        def stretch(header):
            header["segments"][0]["count"] *= 1000
            header["segments"][0]["nbytes"] *= 1000

        blob = _rewrite_header(_sample_image().to_bytes(), stretch)
        with pytest.raises(SnapshotFormatError, match="overflows"):
            TableImage.open(blob, verify=False)

    def test_missing_segment_is_snapshot_error(self):
        image = _sample_image()
        with pytest.raises(SnapshotFormatError, match="no segment"):
            image.segment("definitely-not-a-segment")

    def test_segments_are_read_only_views(self):
        image = TableImage.open(_sample_image().to_bytes())
        name = image.segment_names()[0]
        with pytest.raises(ValueError):
            image.segment(name)[0] = 1


class TestValueSegments:
    """The value-plane extension of the format (docs/VALUES.md).

    Value side-tables travel as ``values/``-prefixed segments plus one
    ``values`` meta key.  Pre-value-plane images have neither, so they
    must keep loading — with the identity plane (``values is None``,
    ``lookup_value`` returns raw ids) — and half-present combinations
    are corruption, not silently-empty tables.
    """

    def _valued_structure(self):
        from repro.net.prefix import Prefix
        from repro.net.rib import Rib
        from repro.net.values import ValueTable

        values = ValueTable("cc")
        rib = Rib(values=values)
        rib.insert(Prefix.parse("10.0.0.0/8"), values.intern("CN"))
        rib.insert(Prefix.parse("10.1.0.0/16"), values.intern("JP"))
        trie = Poptrie.from_rib(rib, PoptrieConfig(s=16))
        trie.attach_values(values)
        return trie

    def test_pre_value_plane_image_loads_identity(self):
        """The old format *is* the no-values encoding: byte-identical
        to a seed-era image, and it loads with the identity plane."""
        image = _sample_image()
        assert "values" not in image.meta
        assert not any(
            n.startswith("values/") for n in image.segment_names()
        )
        rebuilt = Poptrie.from_image(TableImage.open(image.to_bytes()))
        assert rebuilt.values is None
        key = int(next(iter(RIB.routes()))[0].value)
        assert rebuilt.lookup_value(key) == rebuilt.lookup(key)

    def test_valued_image_round_trips_via_bytes(self):
        trie = self._valued_structure()
        blob = trie.to_image().to_bytes()
        rebuilt = Poptrie.from_image(TableImage.open(blob))
        assert rebuilt.values == trie.values
        assert rebuilt.to_image().fingerprint() == trie.to_image().fingerprint()

    def test_value_segments_without_meta_rejected(self):
        blob = _rewrite_meta(
            self._valued_structure().to_image().to_bytes(),
            lambda h: h["meta"].pop("values"),
        )
        with pytest.raises(SnapshotFormatError, match="values"):
            Poptrie.from_image(TableImage.open(blob, verify=False))

    def test_value_count_mismatch_rejected(self):
        def lie(header):
            header["meta"]["values"]["count"] = 9

        blob = _rewrite_meta(
            self._valued_structure().to_image().to_bytes(), lie
        )
        with pytest.raises(SnapshotFormatError, match="declares 9"):
            Poptrie.from_image(TableImage.open(blob, verify=False))

    def test_unknown_value_kind_rejected(self):
        def lie(header):
            header["meta"]["values"]["kind"] = "zz"

        blob = _rewrite_meta(
            self._valued_structure().to_image().to_bytes(), lie
        )
        with pytest.raises(SnapshotFormatError, match="zz"):
            Poptrie.from_image(TableImage.open(blob, verify=False))


def _rewrite_meta(blob: bytes, mutate) -> bytes:
    """Like :func:`_rewrite_header` but length-preserving (CRC not fixed).

    Value-plane rejection fires *after* segment decoding starts, so the
    recorded absolute segment offsets must stay valid: the mutated JSON
    is space-padded back to the original header length (mutations may
    only shrink or keep the encoding's size).
    """
    preamble = struct.Struct("<8sII")
    magic, hlen, reserved = preamble.unpack_from(blob, 0)
    header = json.loads(blob[preamble.size : preamble.size + hlen])
    mutate(header)
    encoded = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode()
    assert len(encoded) <= hlen, "mutation grew the header"
    return (
        blob[: preamble.size]
        + encoded.ljust(hlen, b" ")
        + blob[preamble.size + hlen :]
    )


def _rewrite_header(blob: bytes, mutate) -> bytes:
    """Re-emit ``blob`` with a mutated JSON header (CRC not fixed up).

    The rewritten header may change length; both callers expect a
    rejection that fires before segment payloads are decoded, so the
    resulting offset skew is irrelevant.
    """
    preamble = struct.Struct("<8sII")
    magic, hlen, reserved = preamble.unpack_from(blob, 0)
    header = json.loads(blob[preamble.size : preamble.size + hlen])
    mutate(header)
    encoded = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode()
    return (
        preamble.pack(magic, len(encoded), reserved)
        + encoded
        + blob[preamble.size + hlen :]
    )


class TestRegistryRoundTrip:
    """Satellite: every ``supports_image`` entry round-trips exactly."""

    def test_expected_roster(self):
        assert set(ROSTER) == {
            "D18R", "D16R", "SAIL", "DIR-24-8",
            "Poptrie0", "Poptrie16", "Poptrie18",
        }

    @pytest.mark.parametrize("name", sorted(ROSTER))
    def test_fingerprint_identical_after_round_trip(self, name):
        original = ROSTER[name]
        reopened = TableImage.open(original.to_image().to_bytes())
        rebuilt = image_to_structure(reopened)
        assert rebuilt.to_image().fingerprint() == reopened.fingerprint()

    @pytest.mark.parametrize("copy", [True, False])
    @pytest.mark.parametrize("name", sorted(ROSTER))
    def test_lookup_agreement_on_random_sweep(self, name, copy):
        original = ROSTER[name]
        rebuilt = structure_from_bytes(
            structure_to_bytes(original), copy=copy
        )
        np.testing.assert_array_equal(
            rebuilt.lookup_batch(KEYS), original.lookup_batch(KEYS)
        )

    def test_zero_copy_structures_share_the_blob(self):
        blob = structure_to_bytes(ROSTER["Poptrie18"])
        attached = structure_from_bytes(blob, copy=False)
        # A zero-copy attach allocates no private copies of the big
        # arrays; the reported memory should not double when we attach
        # a second time to the same buffer.
        again = structure_from_bytes(blob, copy=False)
        np.testing.assert_array_equal(
            attached.lookup_batch(KEYS[:256]), again.lookup_batch(KEYS[:256])
        )

    def test_unsupported_structures_raise_type_error(self):
        unsupported = [
            name for name in registry.available()
            if not registry.get(name).supports_image
        ]
        assert unsupported, "expected at least one pointer-chasing baseline"
        structure = registry.standard_roster(RIB, unsupported[:1])[
            unsupported[0]
        ]
        with pytest.raises(TypeError, match="does not support table images"):
            structure.to_image()


class TestPersistenceSurface:
    def test_save_load_path_round_trip(self, tmp_path):
        trie = ROSTER["Poptrie18"]
        path = str(tmp_path / "table.img")
        written = save_structure(trie, path)
        assert written == len(structure_to_bytes(trie))
        loaded = load_structure(path)
        np.testing.assert_array_equal(
            loaded.lookup_batch(KEYS), trie.lookup_batch(KEYS)
        )

    def test_save_load_stream_round_trip(self):
        trie = ROSTER["Poptrie16"]
        buffer = io.BytesIO()
        save_structure(trie, buffer)
        buffer.seek(0)
        loaded = load_structure(buffer)
        np.testing.assert_array_equal(
            loaded.lookup_batch(KEYS), trie.lookup_batch(KEYS)
        )

    def test_garbage_blob_rejected(self):
        # The second input is a leftover file in the retired pre-image
        # snapshot format: rejected by its magic, never parsed.
        leftover = b"POPTRIE1" + bytes(32) + b"\xff" * 8
        for blob in (b"certainly not a table snapshot", leftover):
            with pytest.raises(SnapshotFormatError, match="bad magic"):
                structure_from_bytes(blob)
