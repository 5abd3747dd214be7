"""Layout scenario files on disk: JSON and binary GDSII loaders.

Real lithography campaigns start from a layout archive, not a Python object.
This module reads two on-disk formats straight into a windowed
:class:`~repro.layout.reader.LayoutReader`, so a scenario file can drive the
whole out-of-core pipeline without a dense raster ever existing:

* the ``repro-layout`` **JSON** format written by
  :func:`repro.masks.io.save_layout` (layer -> rectangle list, nm units),
  extended with an optional ``"polygons"`` mapping
  (layer -> list of ``[x, y]`` vertex rings, rectilinear), and
* **binary GDSII** (the native ``.gds`` record stream, detected by its
  ``HEADER`` record regardless of suffix): hierarchical cell graphs with
  ``SREF``/``AREF`` placements load as a lazy
  :class:`~repro.layout.hierarchy.HierarchicalLayoutReader` — instances are
  resolved per window, never flattened up front.  Malformed streams raise
  :class:`~repro.layout.gdsii.LayoutFormatError` with a file offset.

Use :func:`load_layout_file`, which dispatches on the file suffix
(``.json`` vs anything else) and returns a ready-to-image reader.  Any
other file — GDSII *text* included, which is no longer read — raises
:class:`~repro.layout.gdsii.LayoutFormatError`.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from .gdsii import LayoutFormatError, looks_like_binary_gds, parse_gds
from .geometry import Polygon, Rect
from .indexed import GeometryLayoutReader

_LAYOUT_FORMAT = "repro-layout"


def read_layout_bytes(path: str) -> bytes:
    """The whole layout file, read once (``FileNotFoundError`` if missing)."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"no layout file at {path}")
    with open(path, "rb") as handle:
        return handle.read()


def _parse_binary_gds(path: str, data: bytes):
    """Parse ``data`` (the bytes of ``path``) as binary GDSII, or raise a
    :class:`LayoutFormatError` saying what to export instead."""
    if not looks_like_binary_gds(data[:512]):
        raise LayoutFormatError(
            path, 0, "not a layout file: no binary GDSII HEADER record "
            "(GDSII text is no longer read — export the layout as binary "
            ".gds)")
    return parse_gds(data, name=path)


def read_layout_shapes(path: str) -> Tuple[Dict[str, List], Optional[float]]:
    """Parse a layout file into ``(layer -> shapes, extent_nm or None)``.

    The JSON format records its extent; binary GDSII does not (``None`` —
    callers derive it from the shapes' bounding box).  Binary GDSII
    hierarchies are flattened to chip-space rectangles here; use
    :func:`load_layout_file` to keep them lazy.
    """
    data = read_layout_bytes(path)
    if path.endswith(".json"):
        return _read_json_layout(path, data)
    from .hierarchy import flatten_gds_shapes

    return flatten_gds_shapes(_parse_binary_gds(path, data)), None


def _read_json_layout(path: str, data: bytes,
                      ) -> Tuple[Dict[str, List], float]:
    document = json.loads(data.decode("utf-8"))
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
    """Load a JSON or binary-GDSII layout file as a windowed reader.

    ``shape`` fixes the raster dimensions; by default they follow the file's
    recorded extent (JSON) or the shapes' bounding box rounded up to whole
    pixels (GDSII).  Binary GDSII returns a lazy
    :class:`~repro.layout.hierarchy.HierarchicalLayoutReader` (the cell
    hierarchy is never flattened); JSON a
    :class:`~repro.layout.indexed.GeometryLayoutReader`.  Every call reads
    and parses the file afresh; :func:`repro.layout.load_layout_source`
    keeps the readers it builds.
    """
    return layout_reader_from_bytes(path, read_layout_bytes(path),
                                    pixel_size_nm, shape=shape,
                                    layers=layers)


def layout_reader_from_bytes(path: str, data: bytes, pixel_size_nm: float,
                             shape: Optional[Tuple[int, int]] = None,
                             layers=None):
    """:func:`load_layout_file` on ``data``, the bytes already read from
    ``path`` (whose suffix picks the format and which labels errors)."""
    if path.endswith(".json"):
        shapes, extent_nm = _read_json_layout(path, data)
        return GeometryLayoutReader(shapes, pixel_size_nm, shape=shape,
                                    extent_nm=extent_nm, layers=layers)
    from .hierarchy import HierarchicalLayoutReader

    return HierarchicalLayoutReader(_parse_binary_gds(path, data),
                                    pixel_size_nm, shape=shape,
                                    layers=layers, source=path)


#: File suffixes the CLI treats as layout files rather than a dense
#: ``.npy``/``.npz`` raster.  The GDSII-text ones stay so that such a file
#: gets :func:`load_layout_file`'s error, not a failing ``np.load``.
LAYOUT_FILE_SUFFIXES = (".json", ".gds", ".gdstxt", ".gds.txt", ".txt")


def is_layout_file(path: str) -> bool:
    """True when ``path`` looks like a geometry layout file (by suffix)."""
    return path.endswith(LAYOUT_FILE_SUFFIXES)
