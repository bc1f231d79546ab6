"""Tests for table snapshot I/O.

Two formats share one loader: the human-readable ``repro-table v1`` text
format and the binary ``RPIMG001`` rib image (``save_table_image``).
``load_table`` sniffs the magic, so journal checkpoints written in
either era recover through the same call.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_random_rib

from repro.core.poptrie import Poptrie
from repro.data.tableio import (
    load_table,
    rib_from_image,
    rib_to_image,
    save_table,
    save_table_image,
)
from repro.errors import TableFormatError
from repro.net.prefix import Prefix
from repro.net.rib import Rib
from repro.net.values import ValueTable
from repro.parallel.image import MAGIC, TableImage


def dumps_table(rib) -> str:
    buffer = io.StringIO()
    save_table(rib, buffer)
    return buffer.getvalue()


def loads_table(text: str):
    return load_table(io.StringIO(text))


class TestRoundTrip:
    def test_string_roundtrip(self):
        rib = make_random_rib(200, seed=31)
        out = loads_table(dumps_table(rib))
        assert list(out.routes()) == list(rib.routes())

    def test_file_roundtrip(self, tmp_path):
        rib = make_random_rib(100, seed=32)
        path = str(tmp_path / "table.txt")
        written = save_table(rib, path)
        assert written == 100
        out = load_table(path)
        assert list(out.routes()) == list(rib.routes())

    def test_ipv6_roundtrip(self):
        rib = make_random_rib(50, seed=33, width=128, lengths=[32, 48, 64])
        out = loads_table(dumps_table(rib))
        assert out.width == 128
        assert list(out.routes()) == list(rib.routes())

    def test_empty_table(self):
        assert len(loads_table(dumps_table(Rib()))) == 0


class TestFormat:
    def test_header_records_width(self):
        text = dumps_table(Rib(width=128))
        assert text.splitlines()[0] == "# repro-table v1 width=128"

    def test_human_readable_lines(self):
        rib = Rib()
        rib.insert(Prefix.parse("192.0.2.0/24"), 7)
        assert "192.0.2.0/24 7" in dumps_table(rib)

    def test_comments_and_blanks_ignored(self):
        text = "# repro-table v1 width=32\n\n# comment\n10.0.0.0/8 1\n"
        rib = loads_table(text)
        assert len(rib) == 1

    def test_stream_objects_accepted(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        buffer = io.StringIO()
        save_table(rib, buffer)
        buffer.seek(0)
        assert len(load_table(buffer)) == 1


class TestValueDirectives:
    """The ``# repro-values`` extension of the text format."""

    def _valued_rib(self):
        from repro.net.values import ValueTable

        values = ValueTable("cc")
        rib = Rib(values=values)
        rib.insert(Prefix.parse("10.0.0.0/8"), values.intern("CN"))
        rib.insert(Prefix.parse("10.1.0.0/16"), values.intern("JP"))
        return rib

    def test_text_round_trip_carries_values(self):
        rib = self._valued_rib()
        text = dumps_table(rib)
        assert "# repro-values kind=cc count=2" in text
        assert "# v 1 CN" in text and "# v 2 JP" in text
        back = loads_table(text)
        assert back.values == rib.values
        assert back.lookup(Prefix.parse("10.1.2.3/32").value) == 2

    def test_directives_are_comments_to_old_parsers(self):
        """Every value line is ``#``-prefixed, so a pre-value-plane
        parser (which skips comments) reads the same routes."""
        for line in dumps_table(self._valued_rib()).splitlines():
            if "repro-values" in line or line.startswith("# v "):
                assert line.startswith("#")

    def test_plain_tables_emit_no_directives(self):
        rib = Rib()
        rib.insert(Prefix.parse("10.0.0.0/8"), 1)
        assert "repro-values" not in dumps_table(rib)
        assert loads_table(dumps_table(rib)).values is None

    def test_value_line_before_directive_rejected(self):
        with pytest.raises(TableFormatError, match="directive"):
            loads_table("# repro-table v1 width=32\n# v 1 CN\n")

    def test_duplicate_directive_rejected(self):
        text = (
            "# repro-table v1 width=32\n"
            "# repro-values kind=cc count=0\n"
            "# repro-values kind=cc count=0\n"
        )
        with pytest.raises(TableFormatError, match="duplicate"):
            loads_table(text)

    def test_out_of_order_ids_rejected(self):
        text = (
            "# repro-table v1 width=32\n"
            "# repro-values kind=cc count=2\n"
            "# v 2 JP\n"
        )
        with pytest.raises(TableFormatError, match="interning order"):
            loads_table(text)

    def test_bad_payload_reports_line_number(self):
        text = (
            "# repro-table v1 width=32\n"
            "# repro-values kind=cc count=1\n"
            "# v 1 TOOLONG\n"
        )
        with pytest.raises(TableFormatError, match="line 3"):
            loads_table(text)

    def test_rib_image_round_trip_carries_values(self):
        rib = self._valued_rib()
        image = rib_to_image(rib)
        assert "values" in image.meta
        back = rib_from_image(image)
        assert back.values == rib.values
        assert sorted(p.text for p, _ in back.routes()) == sorted(
            p.text for p, _ in rib.routes()
        )

    def test_save_table_image_round_trip_carries_values(self, tmp_path):
        rib = self._valued_rib()
        path = str(tmp_path / "geo.img")
        save_table_image(rib, path)
        back = load_table(path)
        assert back.values == rib.values


class TestRibImage:
    """The binary snapshot path: rib → RPIMG001 image → rib."""

    def test_image_roundtrip(self):
        rib = make_random_rib(300, seed=41)
        out = rib_from_image(rib_to_image(rib))
        assert out.width == rib.width
        assert list(out.routes()) == list(rib.routes())

    def test_ipv6_image_roundtrip(self):
        rib = make_random_rib(60, seed=42, width=128, lengths=[16, 64, 120])
        out = rib_from_image(rib_to_image(rib))
        assert out.width == 128
        assert list(out.routes()) == list(rib.routes())

    def test_empty_rib_image(self):
        assert len(rib_from_image(rib_to_image(Rib()))) == 0

    def test_images_are_deterministic(self):
        rib = make_random_rib(100, seed=43)
        assert (
            rib_to_image(rib).fingerprint() == rib_to_image(rib).fingerprint()
        )

    def test_save_table_image_loads_through_load_table(self, tmp_path):
        rib = make_random_rib(150, seed=44)
        path = str(tmp_path / "table.img")
        written = save_table_image(rib, path)
        with open(path, "rb") as stream:
            blob = stream.read()
        assert len(blob) == written
        assert blob[:8] == MAGIC  # binary, magic-sniffed by load_table
        out = load_table(path)
        assert list(out.routes()) == list(rib.routes())

    def test_save_table_image_to_stream(self):
        rib = make_random_rib(50, seed=45)
        buffer = io.BytesIO()
        save_table_image(rib, buffer)
        out = rib_from_image(TableImage.open(buffer.getvalue()))
        assert list(out.routes()) == list(rib.routes())

    def test_wrong_kind_rejected(self):
        from repro.core.poptrie import Poptrie

        trie = Poptrie.from_rib(make_random_rib(20, seed=46))
        with pytest.raises(TableFormatError, match="not a routing table"):
            rib_from_image(trie.to_image())

    def test_corrupt_image_file_is_typed(self, tmp_path):
        path = str(tmp_path / "table.img")
        rib = make_random_rib(40, seed=47)
        save_table_image(rib, path)
        with open(path, "rb") as stream:
            blob = bytearray(stream.read())
        blob[len(blob) // 2] ^= 0x10
        with open(path, "wb") as stream:
            stream.write(bytes(blob))
        with pytest.raises(TableFormatError, match="bad table image"):
            load_table(path)

    def test_binary_garbage_in_text_snapshot_is_typed(self, tmp_path):
        path = str(tmp_path / "table.bin")
        with open(path, "wb") as stream:
            stream.write(b"\x00\xff\xfe garbage that is not UTF-8 \x80")
        with pytest.raises(TableFormatError):
            load_table(path)


class TestErrors:
    def test_missing_header(self):
        with pytest.raises(ValueError, match="missing header"):
            loads_table("10.0.0.0/8 1\n")

    def test_bad_route_line_reports_line_number(self):
        text = "# repro-table v1 width=32\n10.0.0.0/8 1\ngarbage\n"
        with pytest.raises(ValueError, match="line 3"):
            loads_table(text)

    def test_bad_fib_index(self):
        text = "# repro-table v1 width=32\n10.0.0.0/8 x\n"
        with pytest.raises(ValueError):
            loads_table(text)

    def test_host_bits_rejected(self):
        text = "# repro-table v1 width=32\n10.0.0.1/8 1\n"
        with pytest.raises(ValueError):
            loads_table(text)


class TestTypedErrors:
    """Every malformed input surfaces as TableFormatError with the 1-based
    line number of the offending input (it stays a ValueError subclass for
    backward compatibility)."""

    def _error(self, text):
        with pytest.raises(TableFormatError) as info:
            loads_table(text)
        return info.value

    def test_missing_header_is_typed(self):
        error = self._error("10.0.0.0/8 1\n")
        assert error.line == 1
        assert isinstance(error, ValueError)

    def test_bad_width_in_header(self):
        error = self._error("# repro-table v1 width=banana\n")
        assert error.line == 1 and "bad width" in str(error)

    def test_unsupported_width(self):
        error = self._error("# repro-table v1 width=64\n")
        assert "expected 32 or 128" in str(error)

    def test_wrong_field_count(self):
        error = self._error("# repro-table v1 width=32\n10.0.0.0/8 1 extra\n")
        assert error.line == 2 and "expected 'prefix fib-index'" in str(error)

    def test_bad_prefix_carries_line(self):
        error = self._error(
            "# repro-table v1 width=32\n10.0.0.0/8 1\n\nnot/a/prefix 2\n"
        )
        assert error.line == 4 and "bad prefix" in str(error)

    def test_wrong_family_prefix(self):
        error = self._error("# repro-table v1 width=32\n2001:db8::/32 1\n")
        assert error.line == 2 and "width=32" in str(error)

    def test_bad_fib_index_message(self):
        error = self._error("# repro-table v1 width=32\n10.0.0.0/8 seven\n")
        assert "bad FIB index 'seven'" in str(error) and error.line == 2

    @pytest.mark.parametrize("index", ["0", "-3", str(1 << 32)])
    def test_out_of_range_fib_index(self, index):
        error = self._error(f"# repro-table v1 width=32\n10.0.0.0/8 {index}\n")
        assert "outside 1..4294967295" in str(error)


# ---------------------------------------------------------------------------
# The bulk loader against the per-route insert loop it replaced
# ---------------------------------------------------------------------------

_MAX_FIB = (1 << 32) - 1


def image_from_rows(rows, width, values=None, fib_dtype=np.uint32):
    """A ``kind="rib"`` image holding ``(value, length, fib)`` rows in the
    given order — unsorted, duplicated or malformed as the test wants."""
    meta = {"routes": len(rows)}
    segments = {
        "value_hi": np.array([v >> 64 for v, _, _ in rows], np.uint64),
        "value_lo": np.array([v & ((1 << 64) - 1) for v, _, _ in rows], np.uint64),
        "length": np.array([n for _, n, _ in rows], np.uint8),
        "fib": np.array([f for _, _, f in rows], fib_dtype),
    }
    if values is not None:
        meta["values"], vsegs = values.to_segments()
        segments.update({f"values/{k}": a for k, a in vsegs.items()})
    return TableImage.build(
        kind="rib", algorithm="rib", width=width, meta=meta, segments=segments
    )


def reference_rib_from_image(image) -> Rib:
    """The per-route loader: one ``Rib.insert`` per row in file order,
    checking each row as it goes.  The bulk loader must match its RIB
    and, on a bad row, its error message."""
    width = image.width
    columns = [
        image.segment(name).tolist()
        for name in ("value_hi", "value_lo", "length", "fib")
    ]
    values = None
    if "values" in image.meta:
        values = ValueTable.from_segments(
            image.meta["values"],
            {
                name[len("values/"):]: image.segment(name)
                for name in image.segment_names()
                if name.startswith("values/")
            },
        )
    rib = Rib(width=width, values=values)
    for hi, lo, plen, fib_index in zip(*columns):
        if not 1 <= fib_index <= _MAX_FIB:
            raise TableFormatError(f"FIB index {fib_index} outside 1..{_MAX_FIB}")
        try:
            rib.insert(Prefix((hi << 64) | lo, plen, width), fib_index)
        except ValueError as exc:
            raise TableFormatError(f"bad route in rib image: {exc}") from exc
    return rib


def route_arrays(rib):
    """The four rib-image segments, built the slow way from ``routes()``."""
    routes = list(rib.routes())
    return {
        "value_hi": np.array([p.value >> 64 for p, _ in routes], np.uint64),
        "value_lo": np.array(
            [p.value & ((1 << 64) - 1) for p, _ in routes], np.uint64
        ),
        "length": np.array([p.length for p, _ in routes], np.uint8),
        "fib": np.array([i for _, i in routes], np.uint32),
    }


@st.composite
def route_rows(draw, width):
    """Rows in any order, with duplicates, ``/0`` and host routes."""
    bits = st.one_of(
        st.text("01", max_size=10),  # short prefixes that nest and share paths
        st.text("01", min_size=width - 6, max_size=width),  # long and host routes
        st.just(""),
    )
    kinds = draw(st.integers(0, 4))  # 0: no value table
    fib = st.integers(1, kinds or 40)
    rows = []
    for path in draw(st.lists(bits, max_size=40)):
        value = int(path, 2) << (width - len(path)) if path else 0
        rows.append((value, len(path), draw(fib)))
    if rows:
        again = draw(st.lists(st.sampled_from(rows), max_size=6))
        rows += [(value, length, draw(fib)) for value, length, _ in again]
    rows = draw(st.permutations(rows))
    values = None
    if kinds:
        values = ValueTable("cc")
        for code in ("CN", "JP", "US", "DE")[:kinds]:
            values.intern(code)
    return rows, values


class TestBulkLoader:
    """``rib_from_image`` builds the RIB the per-route ``insert`` loop
    builds, whatever the row order; ``rib_to_image`` writes the segments
    ``routes()`` describes."""

    @pytest.mark.parametrize("width", [32, 128])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_loads_like_insert(self, width, data):
        rows, values = data.draw(route_rows(width))
        image = image_from_rows(rows, width, values)
        expected = reference_rib_from_image(image)
        loaded = rib_from_image(image)
        assert list(loaded.routes()) == list(expected.routes())
        assert len(loaded) == len(expected)
        assert loaded.node_count == expected.node_count
        assert loaded.values == expected.values
        written = rib_to_image(loaded)
        for name, array in route_arrays(expected).items():
            segment = written.segment(name)
            assert segment.dtype == array.dtype
            assert np.array_equal(segment, array), name
        assert written.to_bytes() == rib_to_image(expected).to_bytes()

    @pytest.mark.parametrize("width", [32, 128])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bad_rows_fail_like_insert(self, width, data):
        """Arbitrary (often malformed) rows: the bulk loader raises
        exactly the per-route loop's error for the first bad row in file
        order, or loads the same RIB."""
        row = st.tuples(
            st.one_of(
                st.integers(0, (1 << width) - 1),
                st.integers(0, (1 << 128) - 1),
                st.integers(0, 3).map(lambda v: v << (width - 2)),
            ),
            st.one_of(st.integers(0, width + 2), st.integers(0, 255)),
            st.one_of(st.integers(0, 3), st.integers(0, (1 << 64) - 1)),
        )
        rows = data.draw(st.lists(row, max_size=12))
        image = image_from_rows(rows, width, fib_dtype=np.uint64)
        try:
            expected = reference_rib_from_image(image)
        except TableFormatError as exc:
            with pytest.raises(TableFormatError) as info:
                rib_from_image(image)
            assert str(info.value) == str(exc)
        else:
            loaded = rib_from_image(image)
            assert list(loaded.routes()) == list(expected.routes())
            assert loaded.node_count == expected.node_count

    def test_poptrie_from_loaded_table_matches_insert(self, tmp_path):
        rib = make_random_rib(400, seed=71)
        rows = [(p.value, p.length, i) for p, i in rib.routes()]
        rows.reverse()  # out of preorder on disk
        target = str(tmp_path / "table.img")
        with open(target, "wb") as stream:
            stream.write(image_from_rows(rows, 32).to_bytes())
        loaded = load_table(target)
        assert (
            Poptrie.from_rib(loaded).to_image().fingerprint()
            == Poptrie.from_rib(rib).to_image().fingerprint()
        )

    def test_checkpoint_bytes_equal_the_input_image(self, tmp_path):
        rib = make_random_rib(300, seed=72, width=128)
        path = str(tmp_path / "table.img")
        save_table_image(rib, path)
        with open(path, "rb") as stream:
            blob = stream.read()
        assert rib_to_image(load_table(path)).to_bytes() == blob


class TestRibImageErrors:
    """Malformed rib images raise ``TableFormatError`` with the message
    the per-route loader gave, naming the first bad row in file order."""

    def _message(self, rows, width=32, **kwargs):
        image = image_from_rows(rows, width, **kwargs)
        with pytest.raises(TableFormatError) as info:
            rib_from_image(image)
        with pytest.raises(TableFormatError) as reference:
            reference_rib_from_image(image)
        assert str(info.value) == str(reference.value)
        return str(info.value)

    def test_fib_index_zero(self):
        rows = [(10 << 24, 8, 1), (11 << 24, 8, 0)]
        assert self._message(rows) == "FIB index 0 outside 1..4294967295"

    def test_fib_index_too_wide(self):
        rows = [(10 << 24, 8, 1 << 32)]
        assert self._message(rows, fib_dtype=np.uint64) == (
            "FIB index 4294967296 outside 1..4294967295"
        )

    def test_host_bits_set(self):
        rows = [((10 << 24) | 1, 8, 1)]
        assert self._message(rows) == (
            "bad route in rib image: host bits set: value=0xa000001 length=8"
        )

    def test_value_wider_than_the_table(self):
        rows = [(1 << 40, 8, 1)]
        assert "host bits set" in self._message(rows)

    def test_length_over_width(self):
        assert self._message([(0, 33, 1)]) == (
            "bad route in rib image: prefix length 33 out of /32"
        )
        assert self._message([(0, 129, 1)], width=128) == (
            "bad route in rib image: prefix length 129 out of /128"
        )

    def test_ipv6_host_bits_in_the_high_half(self):
        rows = [(1 << 70, 32, 1)]
        assert self._message(rows, width=128) == (
            f"bad route in rib image: host bits set: value={1 << 70:#x} length=32"
        )

    def test_first_bad_row_in_file_order_is_reported(self):
        # After sorting, the fib-0 row (10/8) would come first; the
        # report still names the first bad row as written.
        rows = [(12 << 24, 8, 1), ((11 << 24) | 1, 8, 1), (10 << 24, 8, 0)]
        assert "host bits set" in self._message(rows)

    def test_mismatched_segment_lengths(self):
        image = TableImage.build(
            kind="rib",
            algorithm="rib",
            width=32,
            meta={"routes": 2},
            segments={
                "value_hi": np.zeros(2, np.uint64),
                "value_lo": np.zeros(2, np.uint64),
                "length": np.zeros(1, np.uint8),
                "fib": np.ones(2, np.uint32),
            },
        )
        with pytest.raises(TableFormatError) as info:
            rib_from_image(image)
        assert str(info.value) == "rib image segments have mismatched lengths"
