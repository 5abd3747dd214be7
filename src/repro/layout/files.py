"""Layout scenario files on disk: JSON, GDSII-text and binary GDSII loaders.

Real lithography campaigns start from a layout archive, not a Python object.
This module reads three on-disk formats straight into a windowed
:class:`~repro.layout.reader.LayoutReader`, so a scenario file can drive the
whole out-of-core pipeline without a dense raster ever existing:

* the ``repro-layout`` **JSON** format written by
  :func:`repro.masks.io.save_layout` (layer -> rectangle list, nm units),
  extended with an optional ``"polygons"`` mapping
  (layer -> list of ``[x, y]`` vertex rings, rectilinear),
* a minimal **GDSII-text** subset (the ASCII form emitted by ``gds2ascii``
  style tools): ``BOUNDARY`` / ``LAYER n`` / ``XY x1 y1 x2 y2 ...`` /
  ``ENDEL`` records describe rectilinear polygons on numbered layers.
  Coordinates are nanometres; unhandled records (``HEADER``, ``STRNAME``,
  ``UNITS``, ...) are ignored so real exports load without preprocessing, and
* **binary GDSII** (the native ``.gds`` record stream, detected by its
  ``HEADER`` record regardless of suffix): hierarchical cell graphs with
  ``SREF``/``AREF`` placements load as a lazy
  :class:`~repro.layout.hierarchy.HierarchicalLayoutReader` — instances are
  resolved per window, never flattened up front.  Malformed streams raise
  :class:`~repro.layout.gdsii.LayoutFormatError` with a file offset.

Use :func:`load_layout_file`, which dispatches on the file suffix
(``.json`` vs anything else) and, for non-JSON files, on a binary-GDSII
content probe, and returns a ready-to-image reader.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from .gdsii import LayoutFormatError, looks_like_binary_gds, parse_gds
from .geometry import Polygon, Rect
from .indexed import GeometryLayoutReader

_LAYOUT_FORMAT = "repro-layout"


def _probe_layout_kind(path: str) -> str:
    """Sniff a non-JSON layout file: ``"gds"`` (binary GDSII record stream),
    ``"text"`` (GDSII text) or ``"binary"`` (NUL-ridden but not GDSII).

    Binary GDSII starts with a ``HEADER`` record whose first four bytes are
    fixed, so the probe is exact; the NUL check catches other binary blobs
    that UTF-8 would happily decode into garbage records.
    """
    with open(path, "rb") as probe:
        head = probe.read(512)
    if looks_like_binary_gds(head):
        return "gds"
    binary = b"\x00" in head
    if not binary:
        try:
            head.decode("utf-8")
        except UnicodeDecodeError as exc:
            # A multibyte char truncated by the 512-byte probe errors at
            # the very tail; anything earlier is genuinely non-text.
            binary = exc.start < len(head) - 4
    return "binary" if binary else "text"


def read_layout_shapes(path: str) -> Tuple[Dict[str, List], Optional[float]]:
    """Parse a layout file into ``(layer -> shapes, extent_nm or None)``.

    The JSON format records its extent; GDSII (text or binary) does not
    (``None`` — callers derive it from the shapes' bounding box).  Binary
    GDSII hierarchies are flattened to chip-space rectangles here; use
    :func:`load_layout_file` to keep them lazy.
    """
    if path.endswith(".json"):
        return _read_json_layout(path)
    kind = _probe_layout_kind(path)
    if kind == "gds":
        from .hierarchy import flatten_gds_shapes

        return flatten_gds_shapes(parse_gds(path)), None
    if kind == "binary":
        raise LayoutFormatError(
            path, 0, "not a layout file: contains NUL bytes but no GDSII "
            "HEADER record (neither binary GDSII nor GDSII text)")
    return _read_gds_text_layout(path), None


def _read_json_layout(path: str) -> Tuple[Dict[str, List], float]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("format") != _LAYOUT_FORMAT:
        raise ValueError(f"{path} is not a {_LAYOUT_FORMAT} JSON file")
    shapes: Dict[str, List] = {}
    for layer, rects in document.get("layers", {}).items():
        shapes.setdefault(layer, []).extend(
            Rect(float(x), float(y), float(w), float(h))
            for x, y, w, h in rects)
    for layer, rings in document.get("polygons", {}).items():
        shapes.setdefault(layer, []).extend(
            Polygon(tuple((float(x), float(y)) for x, y in ring))
            for ring in rings)
    return shapes, float(document["extent_nm"])


def _read_gds_text_layout(path: str) -> Dict[str, List]:
    shapes: Dict[str, List] = {}
    layer: Optional[str] = None
    vertices: List[Tuple[float, float]] = []
    in_element = False
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            tokens = line.split()
            if not tokens:
                continue
            record = tokens[0].upper()
            if record == "BOUNDARY":
                in_element, layer, vertices = True, None, []
            elif record == "LAYER" and in_element:
                layer = tokens[1] if len(tokens) > 1 else "0"
            elif record == "XY" and in_element:
                values = [float(token) for token in tokens[1:]]
                if len(values) % 2:
                    raise ValueError(
                        f"{path}:{line_number}: XY needs coordinate pairs")
                vertices.extend(zip(values[0::2], values[1::2]))
            elif record == "ENDEL" and in_element:
                if len(vertices) > 1 and vertices[0] == vertices[-1]:
                    vertices = vertices[:-1]  # closed ring: drop the repeat
                if len(vertices) >= 3:
                    shapes.setdefault(layer or "0", []).append(
                        Polygon(tuple(vertices)))
                in_element, layer, vertices = False, None, []
    return shapes


def shapes_extent_nm(shapes: Dict[str, List]) -> float:
    """Tight square extent covering every shape (their joint bounding box)."""
    extent = 0.0
    for layer_shapes in shapes.values():
        for item in layer_shapes:
            box = item.bounding_box() if isinstance(item, Polygon) else item
            extent = max(extent, box.x2, box.y2)
    if extent <= 0:
        raise ValueError("layout file contains no shapes")
    return extent


def load_layout_file(path: str, pixel_size_nm: float,
                     shape: Optional[Tuple[int, int]] = None,
                     layers=None):
    """Load a JSON / GDSII-text / binary-GDSII layout file as a windowed
    reader.

    ``shape`` fixes the raster dimensions; by default they follow the file's
    recorded extent (JSON) or the shapes' bounding box rounded up to whole
    pixels (GDSII text and binary).  Binary GDSII returns a lazy
    :class:`~repro.layout.hierarchy.HierarchicalLayoutReader` (the cell
    hierarchy is never flattened); the text formats return a
    :class:`~repro.layout.indexed.GeometryLayoutReader`.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no layout file at {path}")
    if not path.endswith(".json") and _probe_layout_kind(path) == "gds":
        from .hierarchy import HierarchicalLayoutReader

        return HierarchicalLayoutReader(parse_gds(path), pixel_size_nm,
                                        shape=shape, layers=layers,
                                        source=path)
    shapes, extent_nm = read_layout_shapes(path)
    if shape is None and extent_nm is None:
        side = -(-shapes_extent_nm(shapes) // pixel_size_nm)  # ceil
        shape = (int(side), int(side))
    return GeometryLayoutReader(shapes, pixel_size_nm, shape=shape,
                                extent_nm=extent_nm, layers=layers)


#: File suffixes :func:`load_layout_file` understands — the CLI uses this to
#: decide between a dense ``.npy``/``.npz`` raster and a geometry reader.
LAYOUT_FILE_SUFFIXES = (".json", ".gds", ".gdstxt", ".gds.txt", ".txt")


def is_layout_file(path: str) -> bool:
    """True when ``path`` looks like a geometry layout file (by suffix)."""
    return path.endswith(LAYOUT_FILE_SUFFIXES)
