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
from typing import Dict, List, Tuple

from .gdsii import LayoutFormatError, looks_like_binary_gds, parse_gds
from .geometry import Polygon, Rect
from .indexed import GeometryLayoutReader

#: The JSON format :func:`repro.masks.io.save_layout` writes; a file
#: without a ``"version"`` is read as version 1.
LAYOUT_FORMAT = "repro-layout"
LAYOUT_FORMAT_VERSION = 1


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


def _read_json_layout(path: str, data: bytes,
                      ) -> Tuple[Dict[str, List], float]:
    document = json.loads(data.decode("utf-8"))
    if document.get("format") != LAYOUT_FORMAT:
        raise ValueError(f"{path} is not a {LAYOUT_FORMAT} JSON file")
    version = document.get("version", LAYOUT_FORMAT_VERSION)
    if version != LAYOUT_FORMAT_VERSION:
        raise LayoutFormatError(
            path, 0, f"unsupported {LAYOUT_FORMAT} version {version!r} "
            f"(this reader reads version {LAYOUT_FORMAT_VERSION})")
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


def load_layout_file(path: str, pixel_size_nm: float):
    """Load a JSON or binary-GDSII layout file as a windowed reader.

    The raster dimensions follow the file's recorded extent (JSON) or the
    shapes' bounding box rounded up to whole pixels (GDSII); every layer is
    rasterised, unioned.  Binary GDSII returns a lazy
    :class:`~repro.layout.hierarchy.HierarchicalLayoutReader` (the cell
    hierarchy is never flattened); JSON a
    :class:`~repro.layout.indexed.GeometryLayoutReader`.  Every call reads
    and parses the file afresh; :func:`repro.layout.load_layout_source`
    keeps the readers it builds.
    """
    return layout_reader_from_bytes(path, read_layout_bytes(path),
                                    pixel_size_nm)


def layout_reader_from_bytes(path: str, data: bytes, pixel_size_nm: float):
    """:func:`load_layout_file` on ``data``, the bytes already read from
    ``path`` (whose suffix picks the format and which labels errors)."""
    if path.endswith(".json"):
        shapes, extent_nm = _read_json_layout(path, data)
        return GeometryLayoutReader(shapes, pixel_size_nm,
                                    extent_nm=extent_nm)
    from .hierarchy import HierarchicalLayoutReader

    return HierarchicalLayoutReader(_parse_binary_gds(path, data),
                                    pixel_size_nm, source=path)


#: File suffixes the CLI treats as layout files rather than a dense
#: ``.npy``/``.npz`` raster.  The GDSII-text ones stay so that such a file
#: gets :func:`load_layout_file`'s error, not a failing ``np.load``.
LAYOUT_FILE_SUFFIXES = (".json", ".gds", ".gdstxt", ".gds.txt", ".txt")


def is_layout_file(path: str) -> bool:
    """True when ``path`` looks like a geometry layout file (by suffix)."""
    return path.endswith(LAYOUT_FILE_SUFFIXES)
