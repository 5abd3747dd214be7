"""Binary GDSII record stream (repro.layout.gdsii): parse, emit, fuzz.

Pinned guarantees:

* the 8-byte excess-64 real codec round-trips every float64 the emitter
  produces, bit for bit,
* ``parse_gds(write_gds(library))`` reproduces the library, and re-emitting
  yields the **identical byte stream** — for every golden fixture under
  ``tests/data/`` (which were themselves written by
  ``tools/make_gds_fixtures.py``, so the goldens also pin the emitter),
* structural violations (missing HEADER, unknown records, undefined
  reference targets, off-axis angles, degenerate arrays, duplicate
  structures) raise :class:`LayoutFormatError` naming the file offset,
* ``PATH`` and ``BOX`` elements, which the reader does not rasterise, are
  refused the same way rather than imaged as empty reticle, while ``TEXT``
  and ``NODE``, which draw nothing, are skipped, and
* **fuzzing**: truncating any fixture at *every* byte offset, and corrupting
  any single byte (deterministic sweep + hypothesis), either parses cleanly
  or raises ``LayoutFormatError`` — never ``struct.error`` / ``IndexError``
  / an infinite loop.
"""

import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout import gdsii
from repro.layout.gdsii import (
    GDSBoundary,
    GDSCell,
    GDSReference,
    LayoutFormatError,
    _decode_real8,
    _encode_real8,
    iter_records,
    looks_like_binary_gds,
    parse_gds,
    write_gds,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
FIXTURES = sorted(glob.glob(os.path.join(DATA_DIR, "*.gds")))
FIXTURE_IDS = [os.path.basename(path) for path in FIXTURES]


def fixture_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def with_element(data: bytes, kind: str, *records: bytes) -> bytes:
    """``data`` with one ``kind`` element (``records``, then ENDEL) spliced
    in just before the first structure's ENDSTR."""
    end = next(record.offset for record in iter_records(data, "splice")
               if record.name == "ENDSTR")
    element = (gdsii._record_bytes(getattr(gdsii, kind), gdsii._NODATA)
               + b"".join(records)
               + gdsii._record_bytes(gdsii.ENDEL, gdsii._NODATA))
    return data[:end] + element + data[end:]


def layer_xy(*xy: int) -> bytes:
    return (gdsii._record_bytes(gdsii.LAYER, gdsii._INT2, gdsii._int2(1))
            + gdsii._record_bytes(gdsii.XY, gdsii._INT4, gdsii._int4(*xy)))


def test_fixtures_are_committed():
    assert {os.path.basename(p) for p in FIXTURES} >= {
        "flat_boundaries.gds", "hier4.gds", "aref_grid.gds",
        "units_fine.gds"}


class TestReal8Codec:
    @staticmethod
    def roundtrip(value: float) -> float:
        return _decode_real8(int.from_bytes(_encode_real8(value), "big"))

    @given(st.floats(min_value=1e-12, max_value=1e12) |
           st.floats(min_value=-1e12, max_value=-1e-12) |
           st.just(0.0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_exact(self, value):
        assert self.roundtrip(value) == value

    def test_known_encodings(self):
        # 1.0 = 0x10/256 * 16^1: sign 0, exponent 64 + 1, mantissa 0x10...0
        assert _encode_real8(1.0) == bytes.fromhex("4110000000000000")
        assert _decode_real8(0x4110000000000000) == 1.0
        assert _encode_real8(0.0) == b"\x00" * 8
        assert _encode_real8(-1.0)[0] & 0x80


class TestTokenizer:
    @pytest.mark.parametrize("path", FIXTURES, ids=FIXTURE_IDS)
    def test_stream_shape(self, path):
        records = list(iter_records(fixture_bytes(path), path))
        assert records[0].name == "HEADER"
        assert records[-1].name == "ENDLIB"
        offsets = [record.offset for record in records]
        assert offsets == sorted(offsets)
        assert offsets[0] == 0

    def test_probe(self):
        assert looks_like_binary_gds(fixture_bytes(FIXTURES[0])[:6])
        assert not looks_like_binary_gds(b"HEADER 600\n")
        assert not looks_like_binary_gds(b"\x00")

    def test_odd_record_size_rejected(self):
        with pytest.raises(LayoutFormatError, match="offset"):
            list(iter_records(b"\x00\x05\x00\x02\x02", "odd"))

    def test_undersized_record_rejected(self):
        with pytest.raises(LayoutFormatError, match="offset"):
            list(iter_records(b"\x00\x02\x00\x02", "small"))

    def test_missing_endlib_rejected(self):
        data = b"\x00\x06\x00\x02\x02\x58"  # lone HEADER record
        with pytest.raises(LayoutFormatError, match="ENDLIB"):
            list(iter_records(data, "noend"))


class TestParser:
    def test_flat_fixture(self):
        library = parse_gds(
            fixture_bytes(os.path.join(DATA_DIR, "flat_boundaries.gds")),
            name="flat_boundaries.gds")
        (cell,) = library.cells.values()
        assert cell.name == "FLAT"
        assert sorted({b.layer for b in cell.boundaries}) == [1, 2]
        assert not cell.references

    def test_fine_units_scale_coordinates(self):
        flat = parse_gds(fixture_bytes(
            os.path.join(DATA_DIR, "flat_boundaries.gds")))
        fine = parse_gds(fixture_bytes(
            os.path.join(DATA_DIR, "units_fine.gds")))
        assert flat.unit_nm == 1.0
        assert fine.unit_nm == 0.5
        flat_xy = flat.cells["FLAT"].boundaries[0].xy
        fine_xy = fine.cells["FLAT"].boundaries[0].xy
        # database coordinates doubled, nm geometry identical
        assert [(x * 2, y * 2) for x, y in flat_xy] == list(fine_xy)

    def test_hier4_structure(self):
        library = parse_gds(fixture_bytes(os.path.join(DATA_DIR,
                                                       "hier4.gds")))
        assert list(library.cells) == ["UNIT", "PAIR", "ROW", "BLOCK",
                                       "CHIP"]
        assert list(library.top_cells) == ["CHIP"]
        (aref,) = library.cells["CHIP"].references
        assert (aref.columns, aref.rows) == (2, 2)
        assert aref.column_vector == (288.0, 0.0)
        rotated = library.cells["PAIR"].references[1]
        assert rotated.quarter_turns == 2

    def test_missing_header(self):
        with pytest.raises(LayoutFormatError, match="HEADER"):
            parse_gds(b"\x00\x04\x04\x00", name="x")  # bare ENDLIB

    def test_text_gds_is_not_binary(self):
        with pytest.raises(LayoutFormatError, match="offset"):
            parse_gds(b"HEADER 600\nENDLIB\n", name="x")

    def test_undefined_reference_target(self):
        cells = {"TOP": GDSCell("TOP", [], [GDSReference("GHOST", (0, 0))])}
        data = write_gds(cells)
        with pytest.raises(LayoutFormatError, match="GHOST"):
            parse_gds(data, name="ghost")

    def test_duplicate_structure_name(self):
        cell = GDSCell("TWICE", [GDSBoundary(
            1, ((0, 0), (8, 0), (8, 8), (0, 8)))], [])
        data = write_gds({"TWICE": cell})
        # splice the single structure in twice
        records = list(iter_records(data, "dup"))
        begin = next(r.offset for r in records if r.name == "BGNSTR")
        end = next(r.offset for r in records if r.name == "ENDSTR")
        end += 4  # include the ENDSTR record itself
        doubled = data[:end] + data[begin:end] + data[end:]
        with pytest.raises(LayoutFormatError, match="duplicate"):
            parse_gds(doubled, name="dup")

    def test_off_axis_angle_rejected(self):
        cells = {
            "A": GDSCell("A", [GDSBoundary(1, ((0, 0), (8, 0), (8, 8),
                                               (0, 8)))], []),
            "TOP": GDSCell("TOP", [], [GDSReference("A", (0, 0),
                                                    quarter_turns=1)]),
        }
        data = write_gds(cells)
        # ANGLE 90.0 -> 45.0 by patching the encoded real in place
        patched = data.replace(_encode_real8(90.0), _encode_real8(45.0))
        assert patched != data
        with pytest.raises(LayoutFormatError, match="multiples of 90"):
            parse_gds(patched, name="angle")

    def test_degenerate_aref_rejected(self):
        cells = {
            "A": GDSCell("A", [GDSBoundary(1, ((0, 0), (8, 0), (8, 8),
                                               (0, 8)))], []),
            "TOP": GDSCell("TOP", [], [GDSReference(
                "A", (0, 0), columns=4, rows=1, column_vector=(0, 0),
                row_vector=(0, 0))]),
        }
        with pytest.raises(LayoutFormatError, match="zero column"):
            parse_gds(write_gds(cells), name="degenerate")

    def test_collinear_aref_rejected(self):
        cells = {
            "A": GDSCell("A", [GDSBoundary(1, ((0, 0), (8, 0), (8, 8),
                                               (0, 8)))], []),
            "TOP": GDSCell("TOP", [], [GDSReference(
                "A", (0, 0), columns=3, rows=3, column_vector=(16, 0),
                row_vector=(32, 0))]),
        }
        with pytest.raises(LayoutFormatError, match="collinear"):
            parse_gds(write_gds(cells), name="collinear")

    @pytest.mark.parametrize("kind,records", [
        # a 16 nm wide, 256 nm long wire
        ("PATH", (gdsii._record_bytes(gdsii.WIDTH, gdsii._INT4,
                                      gdsii._int4(16)),
                  layer_xy(80, 0, 80, 256))),
        ("BOX", (gdsii._record_bytes(gdsii.BOXTYPE, gdsii._INT2,
                                     gdsii._int2(0)),
                 layer_xy(80, 0, 96, 0, 96, 256, 80, 256, 80, 0))),
    ])
    def test_path_and_box_fail_loudly(self, kind, records):
        """Geometry the reader does not rasterise is refused at its record,
        naming the remedy — never imaged as the boundary beside it alone."""
        cell = GDSCell("TOP", [GDSBoundary(
            1, ((0, 0), (64, 0), (64, 64), (0, 64)))], [])
        data = with_element(write_gds({"TOP": cell}), kind, *records)
        offset = next(record.offset for record in iter_records(data, "x")
                      if record.name == kind)
        with pytest.raises(LayoutFormatError) as excinfo:
            parse_gds(data, name="wire.gds")
        error = excinfo.value
        assert error.offset == offset
        assert str(error) == (
            f"wire.gds: {kind} element in structure 'TOP' is not supported "
            f"and would image as nothing; convert it to BOUNDARY polygons "
            f"and re-export the layout (offset {offset})")

    @pytest.mark.parametrize("kind,records", [
        ("TEXT", (layer_xy(8, 8),
                  gdsii._record_bytes(gdsii.STRING, gdsii._ASCII,
                                      gdsii._ascii("VDD")))),
        ("NODE", (gdsii._record_bytes(gdsii.NODETYPE, gdsii._INT2,
                                      gdsii._int2(0)),
                  layer_xy(8, 8))),
    ])
    def test_labels_and_nodes_are_skipped(self, kind, records):
        """Elements that draw nothing parse to the same library."""
        cell = GDSCell("TOP", [GDSBoundary(
            1, ((0, 0), (64, 0), (64, 64), (0, 64)))], [])
        plain = write_gds({"TOP": cell})
        decorated = with_element(plain, kind, *records)
        assert decorated != plain
        assert parse_gds(decorated).cells == parse_gds(plain).cells

    def test_error_message_carries_source_and_offset(self):
        try:
            parse_gds(fixture_bytes(FIXTURES[0])[:10], name="chip.gds")
        except LayoutFormatError as error:
            assert "chip.gds" in str(error)
            assert "offset" in str(error)
        else:  # pragma: no cover - defended by the fuzz suite
            pytest.fail("truncated stream parsed")


class TestEmitter:
    @pytest.mark.parametrize("path", FIXTURES, ids=FIXTURE_IDS)
    def test_parse_emit_is_byte_identical(self, path):
        data = fixture_bytes(path)
        library = parse_gds(data, name=path)
        assert write_gds(library) == data

    def test_transforms_roundtrip(self):
        cells = {
            "A": GDSCell("A", [GDSBoundary(1, ((0, 0), (8, 0), (8, 8),
                                               (0, 8)))], []),
            "TOP": GDSCell("TOP", [], [
                GDSReference("A", (10, 20)),
                GDSReference("A", (30, 40), quarter_turns=3),
                GDSReference("A", (-8, 4), reflect=True, mag=2.5),
                GDSReference("A", (0, 0), columns=3, rows=2,
                             column_vector=(16, 0), row_vector=(0, 24),
                             quarter_turns=1, reflect=True),
            ]),
        }
        library = parse_gds(write_gds(cells), name="transforms")
        refs = library.cells["TOP"].references
        assert [(r.quarter_turns, r.reflect, r.mag) for r in refs] == [
            (0, False, 1.0), (3, False, 1.0), (0, True, 2.5), (1, True, 1.0)]
        assert refs[3].column_vector == (16.0, 0.0)
        assert refs[3].row_vector == (0.0, 24.0)
        assert refs[2].origin == (-8, 4)

    def test_write_to_path(self, tmp_path):
        cells = {"A": GDSCell("A", [GDSBoundary(
            1, ((0, 0), (8, 0), (8, 8), (0, 8)))], [])}
        path = str(tmp_path / "out.gds")
        data = write_gds(cells, path)
        assert fixture_bytes(path) == data


class TestFuzz:
    """Corruption / truncation never escapes ``LayoutFormatError``."""

    @pytest.mark.parametrize("path", FIXTURES, ids=FIXTURE_IDS)
    def test_every_truncation_fails_loudly(self, path):
        data = fixture_bytes(path)
        for cut in range(len(data)):
            with pytest.raises(LayoutFormatError) as excinfo:
                parse_gds(data[:cut], name="trunc")
            assert "offset" in str(excinfo.value)

    @pytest.mark.parametrize("path", FIXTURES, ids=FIXTURE_IDS)
    def test_every_single_byte_corruption_is_contained(self, path):
        data = fixture_bytes(path)
        for offset in range(len(data)):
            for flip in (0x00, 0xFF, data[offset] ^ 0x80):
                corrupted = data[:offset] + bytes([flip]) + data[offset + 1:]
                try:
                    parse_gds(corrupted, name="corrupt")
                except LayoutFormatError:
                    pass  # loud and typed — exactly the contract

    @given(index=st.integers(0, len(FIXTURES) - 1), offset=st.integers(0),
           value=st.integers(0, 255), cut=st.integers(0))
    @settings(max_examples=150, deadline=None)
    def test_corrupt_then_truncate_is_contained(self, index, offset, value,
                                                cut):
        data = fixture_bytes(FIXTURES[index])
        offset %= len(data)
        mangled = data[:offset] + bytes([value]) + data[offset + 1:]
        mangled = mangled[:cut % (len(mangled) + 1)]
        try:
            parse_gds(mangled, name="fuzz")
        except LayoutFormatError as error:
            assert "fuzz" in str(error)

    @given(junk=st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes_are_contained(self, junk):
        try:
            parse_gds(junk, name="junk")
        except LayoutFormatError:
            pass

    def test_truncated_file_fails_through_loader(self, tmp_path):
        """The files.py dispatch surfaces the same typed error."""
        from repro.layout import load_layout_file

        data = fixture_bytes(FIXTURES[0])
        for cut in (4, len(data) // 2, len(data) - 1):
            path = tmp_path / f"cut{cut}.gds"
            path.write_bytes(data[:cut])
            with pytest.raises(LayoutFormatError, match="offset"):
                load_layout_file(str(path), pixel_size_nm=8.0)
