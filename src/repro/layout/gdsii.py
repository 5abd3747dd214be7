"""Binary GDSII: struct-level record tokenizer, parser and test emitter.

Real chips ship as *binary* GDSII — a stream of ``[size:u16][rectype:u8]
[datatype:u8][payload]`` records describing a library of named cells
(``BGNSTR``/``STRNAME``), each holding ``BOUNDARY`` polygons and
``SREF``/``AREF`` placements of other cells.  This module turns that byte
stream into a :class:`GDSLibrary` — cells, boundaries and references in
database units plus the nm-per-database-unit scale from ``UNITS`` — without
flattening anything; the hierarchy is resolved lazily at window-read time by
:class:`repro.layout.hierarchy.HierarchicalLayoutReader`.

The parser ingests *untrusted* bytes, so every failure mode is loud and
typed: truncation, odd record sizes, unknown record types, missing mandatory
records, undefined cell references, non-Manhattan ``ANGLE`` values,
degenerate ``AREF`` spacings and ``PATH`` / ``BOX`` elements (geometry this
reader does not rasterise, which skipping would image as empty reticle) all
raise :class:`LayoutFormatError` carrying the **byte offset** of the
offending record — never ``struct.error``, ``IndexError`` or a hang (pinned
by the corruption fuzz suite in ``tests/test_layout_gdsii.py``).

:func:`write_gds` is the inverse: a deterministic emitter (timestamps
zeroed) used to build golden fixtures and to drive generative round-trip
testing — ``parse_gds(write_gds(parse_gds(bytes)))`` is content-identical
and, because the 8-byte-real codec round-trips exactly, byte-identical for
emitter-produced streams.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

__all__ = [
    "LayoutFormatError",
    "GDSBoundary",
    "GDSReference",
    "GDSCell",
    "GDSLibrary",
    "iter_records",
    "parse_gds",
    "write_gds",
    "looks_like_binary_gds",
]


class LayoutFormatError(ValueError):
    """A malformed layout byte stream, with byte-offset context.

    Subclasses :class:`ValueError` so existing ``except ValueError`` layout
    error handling keeps working, but carries the source name and the byte
    offset of the offending record so a corrupted multi-megabyte stream is
    diagnosable without a hex editor.
    """

    def __init__(self, source: str, offset: int, message: str):
        self.source = source
        self.offset = int(offset)
        self.message = message
        super().__init__(f"{source}: {message} (offset {self.offset})")


# --------------------------------------------------------------------- #
# record-level constants
# --------------------------------------------------------------------- #
HEADER, BGNLIB, LIBNAME, UNITS, ENDLIB = 0x00, 0x01, 0x02, 0x03, 0x04
BGNSTR, STRNAME, ENDSTR = 0x05, 0x06, 0x07
BOUNDARY, PATH, SREF, AREF, TEXT = 0x08, 0x09, 0x0A, 0x0B, 0x0C
LAYER, DATATYPE, WIDTH, XY, ENDEL = 0x0D, 0x0E, 0x0F, 0x10, 0x11
SNAME, COLROW, NODE = 0x12, 0x13, 0x15
TEXTTYPE, PRESENTATION, STRING = 0x16, 0x17, 0x19
STRANS, MAG, ANGLE = 0x1A, 0x1B, 0x1C
REFLIBS, FONTS, PATHTYPE, GENERATIONS, ATTRTABLE = 0x1F, 0x20, 0x21, 0x22, 0x23
ELFLAGS, NODETYPE, PROPATTR, PROPVALUE = 0x26, 0x2A, 0x2B, 0x2C
BOX, BOXTYPE, PLEX = 0x2D, 0x2E, 0x2F
BGNEXTN, ENDEXTN, FORMAT, MASK, ENDMASKS = 0x30, 0x31, 0x36, 0x37, 0x38

#: Record name by type code — for error messages and debugging dumps.
RECORD_NAMES: Dict[int, str] = {
    HEADER: "HEADER", BGNLIB: "BGNLIB", LIBNAME: "LIBNAME", UNITS: "UNITS",
    ENDLIB: "ENDLIB", BGNSTR: "BGNSTR", STRNAME: "STRNAME", ENDSTR: "ENDSTR",
    BOUNDARY: "BOUNDARY", PATH: "PATH", SREF: "SREF", AREF: "AREF",
    TEXT: "TEXT", LAYER: "LAYER", DATATYPE: "DATATYPE", WIDTH: "WIDTH",
    XY: "XY", ENDEL: "ENDEL", SNAME: "SNAME", COLROW: "COLROW", NODE: "NODE",
    TEXTTYPE: "TEXTTYPE", PRESENTATION: "PRESENTATION", STRING: "STRING",
    STRANS: "STRANS", MAG: "MAG", ANGLE: "ANGLE", REFLIBS: "REFLIBS",
    FONTS: "FONTS", PATHTYPE: "PATHTYPE", GENERATIONS: "GENERATIONS",
    ATTRTABLE: "ATTRTABLE", ELFLAGS: "ELFLAGS", NODETYPE: "NODETYPE",
    PROPATTR: "PROPATTR", PROPVALUE: "PROPVALUE", BOX: "BOX",
    BOXTYPE: "BOXTYPE", PLEX: "PLEX", BGNEXTN: "BGNEXTN", ENDEXTN: "ENDEXTN",
    FORMAT: "FORMAT", MASK: "MASK", ENDMASKS: "ENDMASKS",
}

#: Payload data-type codes (byte 3 of every record header).
_NODATA, _BITARRAY, _INT2, _INT4, _REAL4, _REAL8, _ASCII = range(7)

#: STRANS bit 0 (mask 0x8000): reflect about the x axis before rotation.
STRANS_REFLECT = 0x8000

#: Sanity bounds on UNITS / MAG so corrupted 8-byte reals cannot push the
#: geometry arithmetic into inf/overflow territory downstream.
_UNIT_NM_RANGE = (1e-6, 1e6)
_MAG_RANGE = (1e-9, 1e9)


class Record(NamedTuple):
    """One tokenized GDSII record: where it began and its decoded payload."""

    offset: int
    rectype: int
    datatype: int
    values: Union[Tuple, str, None]

    @property
    def name(self) -> str:
        return RECORD_NAMES.get(self.rectype,
                                f"0x{self.rectype:02X}")


def _decode_real8(word: int) -> float:
    """IBM/GDSII 8-byte real: sign, excess-64 base-16 exponent, 56-bit
    mantissa fraction.  Pure integer arithmetic — cannot raise."""
    sign = -1.0 if word >> 63 else 1.0
    exponent = ((word >> 56) & 0x7F) - 64
    mantissa = word & ((1 << 56) - 1)
    return sign * (mantissa / float(1 << 56)) * 16.0 ** exponent


def _encode_real8(value: float) -> bytes:
    """Inverse of :func:`_decode_real8`; exact for every float64 (a 53-bit
    significand always fits the 56-bit mantissa), so emitter output
    re-parses to the identical float."""
    if value == 0.0:
        return b"\x00" * 8
    sign = 0
    if value < 0:
        sign = 1
        value = -value
    exponent = 0
    while value >= 1.0:
        value /= 16.0
        exponent += 1
    while value < 1.0 / 16.0:
        value *= 16.0
        exponent -= 1
    mantissa = int(round(value * (1 << 56)))
    if mantissa >= 1 << 56:  # rounded up across the normalisation boundary
        mantissa >>= 4
        exponent += 1
    if not -64 <= exponent <= 63:
        raise ValueError(f"real {value!r} out of GDSII 8-byte-real range")
    word = (sign << 63) | ((exponent + 64) << 56) | mantissa
    return word.to_bytes(8, "big")


def _decode_payload(datatype: int, payload: bytes, offset: int,
                    source: str):
    """Decode one record payload; every malformation is a loud error."""
    def fail(message: str) -> LayoutFormatError:
        return LayoutFormatError(source, offset, message)

    if datatype == _NODATA:
        if payload:
            raise fail(f"no-data record carries {len(payload)} payload bytes")
        return None
    if datatype == _BITARRAY:
        if len(payload) != 2:
            raise fail(f"bit-array payload must be 2 bytes, got {len(payload)}")
        return (int.from_bytes(payload, "big"),)
    if datatype == _INT2:
        if len(payload) % 2:
            raise fail("2-byte-integer payload has odd length")
        return struct.unpack(f">{len(payload) // 2}h", payload)
    if datatype == _INT4:
        if len(payload) % 4:
            raise fail(f"4-byte-integer payload length {len(payload)} is not "
                       f"a multiple of 4")
        return struct.unpack(f">{len(payload) // 4}i", payload)
    if datatype == _REAL8:
        if len(payload) % 8:
            raise fail(f"8-byte-real payload length {len(payload)} is not "
                       f"a multiple of 8")
        return tuple(_decode_real8(int.from_bytes(payload[i:i + 8], "big"))
                     for i in range(0, len(payload), 8))
    if datatype == _REAL4:
        if len(payload) % 4:
            raise fail(f"4-byte-real payload length {len(payload)} is not "
                       f"a multiple of 4")
        # Same excess-64 base-16 format with a 24-bit mantissa.
        values = []
        for i in range(0, len(payload), 4):
            word = int.from_bytes(payload[i:i + 4], "big")
            sign = -1.0 if word >> 31 else 1.0
            exponent = ((word >> 24) & 0x7F) - 64
            mantissa = word & ((1 << 24) - 1)
            values.append(sign * (mantissa / float(1 << 24))
                          * 16.0 ** exponent)
        return tuple(values)
    if datatype == _ASCII:
        try:
            text = payload.decode("ascii")
        except UnicodeDecodeError as exc:
            raise fail(f"string payload is not ASCII "
                       f"(byte 0x{payload[exc.start]:02X} at string "
                       f"index {exc.start})") from None
        return text.rstrip("\x00")
    raise fail(f"unknown payload data type {datatype}")


def iter_records(data: bytes, source: str = "<bytes>",
                 stop_after_endlib: bool = True) -> Iterator[Record]:
    """Tokenize a binary GDSII byte stream into :class:`Record` values.

    Always makes forward progress (record size is validated >= the 4-byte
    header before use), so no input can hang the tokenizer; truncation at
    any byte raises :class:`LayoutFormatError` with the record offset.
    Trailing NUL tape padding after ``ENDLIB`` is tolerated; any other
    trailing bytes are an error.
    """
    position, size = 0, len(data)
    while position < size:
        if size - position < 4:
            raise LayoutFormatError(
                source, position,
                f"truncated record header ({size - position} of 4 bytes)")
        record_size = (data[position] << 8) | data[position + 1]
        rectype = data[position + 2]
        datatype = data[position + 3]
        if record_size < 4:
            raise LayoutFormatError(
                source, position,
                f"record size {record_size} is smaller than its own header")
        if record_size % 2:
            raise LayoutFormatError(source, position,
                                    f"odd record size {record_size}")
        if position + record_size > size:
            raise LayoutFormatError(
                source, position,
                f"record payload truncated (record needs {record_size} "
                f"bytes, {size - position} remain)")
        payload = data[position + 4:position + record_size]
        values = _decode_payload(datatype, payload, position, source)
        yield Record(position, rectype, datatype, values)
        position += record_size
        if rectype == ENDLIB and stop_after_endlib:
            remainder = data[position:]
            if remainder.strip(b"\x00"):
                raise LayoutFormatError(
                    source, position,
                    f"{len(remainder)} bytes of non-padding data after "
                    f"ENDLIB")
            return
    if stop_after_endlib:
        raise LayoutFormatError(source, size,
                                "stream ended without an ENDLIB record")


def looks_like_binary_gds(head: bytes) -> bool:
    """True when ``head`` starts with a plausible binary GDSII ``HEADER``
    record (6-byte record, type 0x00, 2-byte-integer payload)."""
    return (len(head) >= 6 and head[0] == 0 and head[1] == 6
            and head[2] == HEADER and head[3] == _INT2)


# --------------------------------------------------------------------- #
# the parsed library
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GDSBoundary:
    """One filled polygon: GDSII layer number + open vertex ring (db units)."""

    layer: int
    xy: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class GDSReference:
    """One ``SREF`` (placement) or ``AREF`` (instance array) of a cell.

    ``column_vector`` / ``row_vector`` are the per-step displacements in the
    *parent* cell's frame (database units; GDSII stores the array's far
    corner points, the parser divides by the counts).  A plain ``SREF`` is
    the 1x1 case.
    """

    cell: str
    origin: Tuple[int, int]
    mag: float = 1.0
    quarter_turns: int = 0
    reflect: bool = False
    columns: int = 1
    rows: int = 1
    column_vector: Tuple[float, float] = (0.0, 0.0)
    row_vector: Tuple[float, float] = (0.0, 0.0)

    @property
    def is_array(self) -> bool:
        return self.columns > 1 or self.rows > 1

    @property
    def count(self) -> int:
        return self.columns * self.rows


@dataclass
class GDSCell:
    """One named structure: its own geometry plus placements of other cells."""

    name: str
    boundaries: List[GDSBoundary] = field(default_factory=list)
    references: List[GDSReference] = field(default_factory=list)


@dataclass
class GDSLibrary:
    """A parsed GDSII library: cells by name + the database-unit scale."""

    name: str
    unit_nm: float
    cells: "OrderedDict[str, GDSCell]"

    @property
    def top_cells(self) -> Tuple[str, ...]:
        """Cells never referenced by another cell (candidate roots)."""
        referenced = {reference.cell for cell in self.cells.values()
                      for reference in cell.references}
        return tuple(name for name in self.cells if name not in referenced)


#: Library-level records carrying metadata the reader does not need.
_LIBRARY_SKIPPED = frozenset({REFLIBS, FONTS, ATTRTABLE, GENERATIONS,
                              FORMAT, MASK, ENDMASKS})
#: Element kinds that draw nothing, skipped: labels and net nodes.
_SKIPPED_ELEMENTS = frozenset({TEXT, NODE})
#: Element kinds that draw geometry this reader does not rasterise: skipping
#: them would image a wire or a box as empty reticle, so they are refused.
_UNSUPPORTED_ELEMENTS = frozenset({PATH, BOX})
#: Per-element decoration records safe to ignore inside any element.
_ELEMENT_SKIPPED = frozenset({ELFLAGS, PLEX, PROPATTR, PROPVALUE, DATATYPE,
                              PATHTYPE, WIDTH, TEXTTYPE, PRESENTATION,
                              STRING, NODETYPE, BOXTYPE, BGNEXTN, ENDEXTN})


class _GDSParser:
    """State machine over the record stream; every surprise is an error."""

    def __init__(self, data: bytes, source: str):
        self._source = source
        self._size = len(data)
        self._records = iter_records(data, source)

    def fail(self, offset: int, message: str) -> LayoutFormatError:
        return LayoutFormatError(self._source, offset, message)

    def next_record(self, expectation: str) -> Record:
        try:
            return next(self._records)
        except StopIteration:
            raise self.fail(self._size,
                            f"stream ended while expecting {expectation}") \
                from None

    # -------------------------------------------------------------- #
    def parse(self) -> GDSLibrary:
        if self._size == 0:
            raise self.fail(0, "empty file")
        record = self.next_record("HEADER")
        if record.rectype != HEADER:
            raise self.fail(record.offset,
                            f"first record is {record.name}, not HEADER — "
                            f"not a binary GDSII stream")
        record = self.next_record("BGNLIB")
        if record.rectype != BGNLIB:
            raise self.fail(record.offset,
                            f"expected BGNLIB after HEADER, got {record.name}")
        library_name = "LIB"
        unit_nm: Optional[float] = None
        cells: "OrderedDict[str, GDSCell]" = OrderedDict()
        reference_offsets: Dict[int, Tuple[str, str]] = {}
        while True:
            record = self.next_record("UNITS, BGNSTR or ENDLIB")
            if record.rectype == LIBNAME:
                library_name = record.values or library_name
            elif record.rectype in _LIBRARY_SKIPPED:
                continue
            elif record.rectype == UNITS:
                unit_nm = self._parse_units(record)
            elif record.rectype == BGNSTR:
                if unit_nm is None:
                    raise self.fail(record.offset,
                                    "BGNSTR before the mandatory UNITS record")
                cell = self._parse_structure(record, reference_offsets)
                if cell.name in cells:
                    raise self.fail(record.offset,
                                    f"duplicate structure name {cell.name!r}")
                cells[cell.name] = cell
            elif record.rectype == ENDLIB:
                break
            else:
                raise self.fail(record.offset,
                                f"unexpected {record.name} record at library "
                                f"level")
        if unit_nm is None:
            raise self.fail(self._size, "library has no UNITS record")
        for offset, (cell_name, target) in sorted(reference_offsets.items()):
            if target not in cells:
                raise self.fail(offset,
                                f"cell {cell_name!r} references undefined "
                                f"structure {target!r}")
        return GDSLibrary(name=library_name, unit_nm=unit_nm, cells=cells)

    def _parse_units(self, record: Record) -> float:
        if record.datatype != _REAL8 or len(record.values) != 2:
            raise self.fail(record.offset,
                            "UNITS must carry two 8-byte reals")
        meters_per_db = record.values[1]
        unit_nm = meters_per_db * 1e9
        low, high = _UNIT_NM_RANGE
        if not (low <= unit_nm <= high):
            raise self.fail(record.offset,
                            f"database unit {unit_nm!r} nm is outside the "
                            f"sane range [{low}, {high}]")
        return unit_nm

    def _parse_structure(self, begin: Record,
                         reference_offsets: Dict[int, Tuple[str, str]],
                         ) -> GDSCell:
        record = self.next_record("STRNAME")
        if record.rectype != STRNAME:
            raise self.fail(record.offset,
                            f"expected STRNAME after BGNSTR, got {record.name}")
        if record.datatype != _ASCII or not record.values:
            raise self.fail(record.offset, "STRNAME must be a non-empty "
                                           "ASCII string")
        cell = GDSCell(name=record.values)
        while True:
            record = self.next_record("an element or ENDSTR")
            if record.rectype == ENDSTR:
                return cell
            if record.rectype == BOUNDARY:
                cell.boundaries.append(self._parse_boundary(record))
            elif record.rectype in (SREF, AREF):
                reference, offset = self._parse_reference(record)
                reference_offsets[offset] = (cell.name, reference.cell)
                cell.references.append(reference)
            elif record.rectype in _SKIPPED_ELEMENTS:
                self._skip_element(record)
            elif record.rectype in _UNSUPPORTED_ELEMENTS:
                raise self.fail(record.offset,
                                f"{record.name} element in structure "
                                f"{cell.name!r} is not supported and would "
                                f"image as nothing; convert it to BOUNDARY "
                                f"polygons and re-export the layout")
            else:
                raise self.fail(record.offset,
                                f"unexpected {record.name} record inside "
                                f"structure {cell.name!r}")

    def _skip_element(self, begin: Record) -> None:
        while True:
            record = self.next_record(f"ENDEL of the {begin.name} element")
            if record.rectype == ENDEL:
                return
            if record.rectype not in _ELEMENT_SKIPPED | {LAYER, XY, SNAME,
                                                         COLROW, STRANS,
                                                         MAG, ANGLE}:
                raise self.fail(record.offset,
                                f"unexpected {record.name} record inside a "
                                f"{begin.name} element")

    def _xy_points(self, record: Record) -> List[Tuple[int, int]]:
        if record.datatype != _INT4:
            raise self.fail(record.offset,
                            "XY must carry 4-byte integers")
        if len(record.values) % 2:
            raise self.fail(record.offset, "XY needs coordinate pairs")
        return list(zip(record.values[0::2], record.values[1::2]))

    def _parse_boundary(self, begin: Record) -> GDSBoundary:
        layer: Optional[int] = None
        points: Optional[List[Tuple[int, int]]] = None
        while True:
            record = self.next_record("ENDEL of the BOUNDARY element")
            if record.rectype == LAYER:
                if record.datatype != _INT2 or not record.values:
                    raise self.fail(record.offset,
                                    "LAYER must carry a 2-byte integer")
                layer = record.values[0]
            elif record.rectype == XY:
                points = self._xy_points(record)
            elif record.rectype in _ELEMENT_SKIPPED:
                continue
            elif record.rectype == ENDEL:
                break
            else:
                raise self.fail(record.offset,
                                f"unexpected {record.name} record inside a "
                                f"BOUNDARY element")
        if layer is None:
            raise self.fail(begin.offset, "BOUNDARY element without a LAYER "
                                          "record")
        if not points:
            raise self.fail(begin.offset, "BOUNDARY element without an XY "
                                          "record")
        if len(points) > 1 and points[0] == points[-1]:
            points = points[:-1]  # closed ring: drop the closing repeat
        if len(points) < 3:
            raise self.fail(begin.offset,
                            f"BOUNDARY needs at least 3 distinct vertices, "
                            f"got {len(points)}")
        return GDSBoundary(layer=layer, xy=tuple(points))

    def _parse_reference(self, begin: Record) -> Tuple[GDSReference, int]:
        is_array = begin.rectype == AREF
        kind = begin.name
        sname: Optional[str] = None
        reflect = False
        mag = 1.0
        quarter_turns = 0
        colrow: Optional[Tuple[int, int]] = None
        points: Optional[List[Tuple[int, int]]] = None
        while True:
            record = self.next_record(f"ENDEL of the {kind} element")
            if record.rectype == SNAME:
                if record.datatype != _ASCII or not record.values:
                    raise self.fail(record.offset,
                                    "SNAME must be a non-empty ASCII string")
                sname = record.values
            elif record.rectype == STRANS:
                if record.datatype not in (_BITARRAY, _INT2) \
                        or not record.values:
                    raise self.fail(record.offset,
                                    "STRANS must carry a 2-byte bit array")
                reflect = bool(record.values[0] & STRANS_REFLECT)
            elif record.rectype == MAG:
                if record.datatype != _REAL8 or not record.values:
                    raise self.fail(record.offset,
                                    "MAG must carry an 8-byte real")
                mag = record.values[0]
                low, high = _MAG_RANGE
                if not (low <= mag <= high):
                    raise self.fail(record.offset,
                                    f"MAG {mag!r} is outside the sane range "
                                    f"[{low}, {high}]")
            elif record.rectype == ANGLE:
                if record.datatype != _REAL8 or not record.values:
                    raise self.fail(record.offset,
                                    "ANGLE must carry an 8-byte real")
                degrees = record.values[0]
                quarters = degrees / 90.0
                if abs(quarters - round(quarters)) > 1e-6:
                    raise self.fail(record.offset,
                                    f"non-Manhattan ANGLE {degrees!r} "
                                    f"(only multiples of 90 are supported)")
                quarter_turns = int(round(quarters)) % 4
            elif record.rectype == COLROW:
                if not is_array:
                    raise self.fail(record.offset,
                                    "COLROW inside an SREF element")
                if record.datatype != _INT2 or len(record.values) != 2:
                    raise self.fail(record.offset,
                                    "COLROW must carry two 2-byte integers")
                colrow = (record.values[0], record.values[1])
                if colrow[0] < 1 or colrow[1] < 1:
                    raise self.fail(record.offset,
                                    f"COLROW counts must be positive, got "
                                    f"{colrow}")
            elif record.rectype == XY:
                points = self._xy_points(record)
            elif record.rectype in _ELEMENT_SKIPPED:
                continue
            elif record.rectype == ENDEL:
                break
            else:
                raise self.fail(record.offset,
                                f"unexpected {record.name} record inside "
                                f"a {kind} element")
        if sname is None:
            raise self.fail(begin.offset, f"{kind} element without an SNAME "
                                          f"record")
        if points is None:
            raise self.fail(begin.offset, f"{kind} element without an XY "
                                          f"record")
        if not is_array:
            if len(points) != 1:
                raise self.fail(begin.offset,
                                f"SREF XY must hold exactly 1 point, got "
                                f"{len(points)}")
            return GDSReference(cell=sname, origin=points[0], mag=mag,
                                quarter_turns=quarter_turns,
                                reflect=reflect), begin.offset
        if colrow is None:
            raise self.fail(begin.offset, "AREF element without a COLROW "
                                          "record")
        if len(points) != 3:
            raise self.fail(begin.offset,
                            f"AREF XY must hold exactly 3 points "
                            f"(origin, column corner, row corner), got "
                            f"{len(points)}")
        columns, rows = colrow
        origin, column_corner, row_corner = points
        column_vector = ((column_corner[0] - origin[0]) / columns,
                         (column_corner[1] - origin[1]) / columns)
        row_vector = ((row_corner[0] - origin[0]) / rows,
                      (row_corner[1] - origin[1]) / rows)
        if columns > 1 and column_vector == (0.0, 0.0):
            raise self.fail(begin.offset,
                            f"degenerate AREF: {columns} columns with zero "
                            f"column displacement")
        if rows > 1 and row_vector == (0.0, 0.0):
            raise self.fail(begin.offset,
                            f"degenerate AREF: {rows} rows with zero row "
                            f"displacement")
        if columns > 1 and rows > 1:
            cross = (column_vector[0] * row_vector[1]
                     - column_vector[1] * row_vector[0])
            if cross == 0.0:
                raise self.fail(begin.offset,
                                "degenerate AREF: collinear column and row "
                                "displacement vectors")
        return GDSReference(cell=sname, origin=origin, mag=mag,
                            quarter_turns=quarter_turns, reflect=reflect,
                            columns=columns, rows=rows,
                            column_vector=column_vector,
                            row_vector=row_vector), begin.offset


def parse_gds(source: Union[str, bytes],
              name: Optional[str] = None) -> GDSLibrary:
    """Parse binary GDSII from a file path or a ``bytes`` buffer.

    Raises :class:`LayoutFormatError` — and only that — for any malformed
    input, always carrying the byte offset of the offending record.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        data = bytes(source)
        label = name or "<bytes>"
    else:
        label = name or source
        with open(source, "rb") as handle:
            data = handle.read()
    return _GDSParser(data, label).parse()


# --------------------------------------------------------------------- #
# the emitter (deterministic; golden fixtures + generative round-trips)
# --------------------------------------------------------------------- #
def _record_bytes(rectype: int, datatype: int, payload: bytes = b"") -> bytes:
    size = 4 + len(payload)
    if size > 0xFFFF:
        raise ValueError(f"record payload too large ({size} bytes)")
    return bytes((size >> 8, size & 0xFF, rectype, datatype)) + payload


def _int2(*values: int) -> bytes:
    out = b""
    for value in values:
        if not -0x8000 <= value <= 0x7FFF:
            raise ValueError(f"{value} does not fit a 2-byte integer")
        out += int(value).to_bytes(2, "big", signed=True)
    return out


def _int4(*values: int) -> bytes:
    out = b""
    for value in values:
        if not -0x80000000 <= value <= 0x7FFFFFFF:
            raise ValueError(f"{value} does not fit a 4-byte integer")
        out += int(value).to_bytes(4, "big", signed=True)
    return out


def _ascii(text: str) -> bytes:
    payload = text.encode("ascii")
    if len(payload) % 2:
        payload += b"\x00"
    return payload


def _exact_int(value: float, what: str) -> int:
    rounded = int(round(value))
    if abs(value - rounded) > 1e-6:
        raise ValueError(f"{what} {value!r} is not on the database grid")
    return rounded


def _emit_transform(reference: GDSReference) -> bytes:
    out = b""
    if reference.reflect or reference.mag != 1.0 \
            or reference.quarter_turns % 4:
        flags = STRANS_REFLECT if reference.reflect else 0
        out += _record_bytes(STRANS, _BITARRAY, _int2(
            flags - 0x10000 if flags > 0x7FFF else flags))
        if reference.mag != 1.0:
            out += _record_bytes(MAG, _REAL8, _encode_real8(reference.mag))
        if reference.quarter_turns % 4:
            out += _record_bytes(ANGLE, _REAL8, _encode_real8(
                float(90 * (reference.quarter_turns % 4))))
    return out


def _meters_per_unit(unit_nm: float) -> float:
    """The metres-per-database-unit value the parser reads back as exactly
    ``unit_nm``: ``x * 1e-9 * 1e9`` is not ``x`` for every float (0.1 drifts
    up an ulp per round trip), so take the neighbour that is."""
    meters = unit_nm * 1e-9
    for candidate in (meters, math.nextafter(meters, 0.0),
                      math.nextafter(meters, math.inf)):
        if candidate * 1e9 == unit_nm:
            return candidate
    return meters


def write_gds(library: Union[GDSLibrary, Mapping[str, GDSCell]],
              path: Optional[str] = None, *,
              unit_nm: Optional[float] = None,
              name: Optional[str] = None) -> bytes:
    """Emit a binary GDSII stream for a library (or plain cell mapping).

    Deterministic by construction — ``BGNLIB`` / ``BGNSTR`` timestamps are
    zeroed — so golden fixtures are byte-stable and
    ``write_gds(parse_gds(write_gds(x)))`` reproduces its input exactly.
    Primarily a test/fixture tool: the reproduction *reads* layouts, it does
    not produce them.
    """
    if isinstance(library, GDSLibrary):
        cells = library.cells
        unit = unit_nm if unit_nm is not None else library.unit_nm
        label = name if name is not None else library.name
    else:
        cells = library
        unit = unit_nm if unit_nm is not None else 1.0
        label = name if name is not None else "REPRO"
    if unit <= 0:
        raise ValueError("unit_nm must be positive")
    zero_stamps = _int2(*([0] * 12))
    chunks = [
        _record_bytes(HEADER, _INT2, _int2(600)),
        _record_bytes(BGNLIB, _INT2, zero_stamps),
        _record_bytes(LIBNAME, _ASCII, _ascii(label)),
        _record_bytes(UNITS, _REAL8,
                      _encode_real8(unit * 1e-3)
                      + _encode_real8(_meters_per_unit(unit))),
    ]
    for cell_name, cell in cells.items():
        chunks.append(_record_bytes(BGNSTR, _INT2, zero_stamps))
        chunks.append(_record_bytes(STRNAME, _ASCII, _ascii(cell_name)))
        for boundary in cell.boundaries:
            ring = list(boundary.xy) + [boundary.xy[0]]  # close the ring
            chunks.append(_record_bytes(BOUNDARY, _NODATA))
            chunks.append(_record_bytes(LAYER, _INT2, _int2(boundary.layer)))
            chunks.append(_record_bytes(DATATYPE, _INT2, _int2(0)))
            chunks.append(_record_bytes(
                XY, _INT4,
                _int4(*[value for point in ring for value in point])))
            chunks.append(_record_bytes(ENDEL, _NODATA))
        for reference in cell.references:
            if reference.is_array:
                ox, oy = reference.origin
                column_corner = (
                    _exact_int(ox + reference.columns
                               * reference.column_vector[0], "AREF corner"),
                    _exact_int(oy + reference.columns
                               * reference.column_vector[1], "AREF corner"))
                row_corner = (
                    _exact_int(ox + reference.rows * reference.row_vector[0],
                               "AREF corner"),
                    _exact_int(oy + reference.rows * reference.row_vector[1],
                               "AREF corner"))
                chunks.append(_record_bytes(AREF, _NODATA))
                chunks.append(_record_bytes(SNAME, _ASCII,
                                            _ascii(reference.cell)))
                chunks.append(_emit_transform(reference))
                chunks.append(_record_bytes(
                    COLROW, _INT2, _int2(reference.columns, reference.rows)))
                chunks.append(_record_bytes(
                    XY, _INT4,
                    _int4(ox, oy, *column_corner, *row_corner)))
            else:
                chunks.append(_record_bytes(SREF, _NODATA))
                chunks.append(_record_bytes(SNAME, _ASCII,
                                            _ascii(reference.cell)))
                chunks.append(_emit_transform(reference))
                chunks.append(_record_bytes(XY, _INT4,
                                            _int4(*reference.origin)))
            chunks.append(_record_bytes(ENDEL, _NODATA))
        chunks.append(_record_bytes(ENDSTR, _NODATA))
    chunks.append(_record_bytes(ENDLIB, _NODATA))
    data = b"".join(chunks)
    if path is not None:
        with open(path, "wb") as handle:
            handle.write(data)
    return data
