"""Spatially-indexed geometry reader: O(window) window queries over shapes.

A full-chip layout holds millions of rectangles; rasterising a 256 px tile
must not iterate all of them.  :class:`GeometryLayoutReader` indexes every
shape into a per-layer **bucket grid** at construction: the raster is divided
into ``DEFAULT_BUCKET_PX``-sized cells and each shape's pixel box is
registered with every cell it spans.  That grid is this module's
``_BucketGrid``, the one spatial index of the layout frontend: the
hierarchical reader indexes each cell's nm rectangles in it too.  A window
query then gathers candidates from
only the cells the window touches, so the work per window is proportional to
the shapes *near the window*, not to the layout — ``last_candidates`` stays
flat while the layout area grows 16x (``tests/test_layout_reader.py``).

Bit-for-bit equality with dense rasterisation
---------------------------------------------
Each shape's pixel-index interval is computed **once**, at index build time,
with exactly the pixel-centre arithmetic of :func:`repro.layout.geometry.rasterize`
(a pixel is set when its centre falls inside the shape).  Window reads then
intersect those integer intervals with the window — no floating-point work
happens per query — so ``read_window(0, 0, H, W)`` equals the full dense
raster bit for bit, and any tiling of windows equals the corresponding
slices of it.  Rectilinear polygons participate via
:meth:`repro.layout.geometry.Polygon.to_rects`.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import Polygon, Rect, _pixel_interval

Shape = Union[Rect, Polygon]

#: Bucket-grid cell size (pixels) of both geometry readers — performance
#: only, never results.  Queries are tile-sized (hundreds of px), so cells a
#: fraction of that keep candidate lists tight without inflating the
#: per-shape registration cost.
DEFAULT_BUCKET_PX = 64


def layout_digest(shape: Tuple[int, int], pixel_size_nm: float,
                  intervals: Iterable[Tuple[str, Iterable[tuple]]]) -> str:
    """The canonical campaign identity of a geometry layout.

    ``intervals`` yields ``(layer, pixel intervals)`` in layer order, each
    interval a shape's clipped integer ``(row0, row1, col0, col1)``; they
    are hashed sorted and de-duplicated per layer, after the raster
    geometry (shape + pixel pitch).  A layer without an interval draws
    nothing and is left out.  Every reader of geometry — flat or
    hierarchical — hashes through here, so equal rasterised geometry is one
    identity whichever reader loaded it.
    """
    digest = hashlib.sha256()
    digest.update(f"repro-layout-reader|shape={shape}"
                  f"|pixel={pixel_size_nm!r}".encode("ascii"))
    for layer, spans in intervals:
        spans = sorted(set(spans))
        if not spans:
            continue
        digest.update(f"|layer={layer}:".encode("utf-8"))
        for interval in spans:
            digest.update(repr(interval).encode("ascii"))
    return digest.hexdigest()


class _BucketGrid:
    """One spatial index over ``(x1, y1, x2, y2)`` boxes: bucket cell -> ids.

    A box is registered with every ``bucket_size`` cell of its closed floor
    span (negative coordinates are fine), and :meth:`query` returns the
    sorted ids of the boxes sharing a cell with the query box — candidates,
    which the caller intersects exactly.  Both geometry readers index
    through it: :class:`GeometryLayoutReader` over pixel boxes, the
    hierarchical reader over each cell's local-frame nm rectangles.
    """

    def __init__(self, bucket_size: float):
        self._bucket_size = float(bucket_size)
        self.boxes: List[Tuple[float, float, float, float]] = []
        self._buckets: Dict[Tuple[int, int], List[int]] = {}

    def __len__(self) -> int:
        return len(self.boxes)

    def _span(self, low: float, high: float) -> range:
        size = self._bucket_size
        return range(math.floor(low / size), math.floor(high / size) + 1)

    def add(self, x1: float, y1: float, x2: float, y2: float) -> None:
        index = len(self.boxes)
        self.boxes.append((x1, y1, x2, y2))
        for by in self._span(y1, y2):
            for bx in self._span(x1, x2):
                self._buckets.setdefault((by, bx), []).append(index)

    def query(self, x1: float, y1: float, x2: float, y2: float) -> List[int]:
        candidates: set = set()
        for by in self._span(y1, y2):
            for bx in self._span(x1, x2):
                candidates.update(self._buckets.get((by, bx), ()))
        return sorted(candidates)


class GeometryLayoutReader:
    """A :class:`~repro.layout.reader.LayoutReader` over indexed geometry.

    Parameters
    ----------
    shapes:
        Layer name -> rectangles and/or rectilinear polygons (nm coordinates;
        polygons are decomposed via :meth:`Polygon.to_rects` at build time).
    pixel_size_nm:
        Raster sampling pitch.
    shape:
        Raster dimensions ``(H, W)``; defaults to the square implied by
        ``extent_nm`` (one of the two must be given).

    Every layer is rasterised: a mask is bright wherever any layer has a
    shape.

    >>> from repro.layout.geometry import Rect
    >>> reader = GeometryLayoutReader({"metal": [Rect(8, 8, 16, 16)]},
    ...                               pixel_size_nm=8.0, extent_nm=64.0)
    >>> reader.shape
    (8, 8)
    >>> reader.read_window(0, 0, 4, 4)[1:3, 1:3]   # binary uint8 coverage
    array([[1, 1],
           [1, 1]], dtype=uint8)
    """

    def __init__(self, shapes: Mapping[str, Sequence[Shape]],
                 pixel_size_nm: float,
                 shape: Optional[Tuple[int, int]] = None,
                 extent_nm: Optional[float] = None):
        if pixel_size_nm <= 0:
            raise ValueError("pixel_size_nm must be positive")
        if shape is None:
            if extent_nm is None or extent_nm <= 0:
                raise ValueError("pass shape=(H, W) or a positive extent_nm")
            side = int(round(extent_nm / pixel_size_nm))
            shape = (side, side)
        if shape[0] <= 0 or shape[1] <= 0:
            raise ValueError("raster shape must be positive")
        self._pixel_size_nm = float(pixel_size_nm)
        self._shape = (int(shape[0]), int(shape[1]))
        self._indices: Dict[str, _BucketGrid] = {}
        #: Candidate shapes touched by the most recent ``read_window`` —
        #: the O(window) observable the tests pin.
        self.last_candidates = 0
        for layer, layer_shapes in shapes.items():
            for item in layer_shapes:
                self._add_shape(layer, item)
        self._layers = tuple(sorted(self._indices))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _add_shape(self, layer: str, item: Shape) -> None:
        """Index one rectangle or rectilinear polygon on ``layer`` (at
        construction only: a reader's windows never change afterwards)."""
        rects = item.to_rects() if isinstance(item, Polygon) else [item]
        grid = self._indices.setdefault(layer,
                                        _BucketGrid(DEFAULT_BUCKET_PX))
        height, width = self._shape
        for rect in rects:
            row0, row1 = _pixel_interval(rect.y, rect.y2, self.pixel_size_nm,
                                         height)
            col0, col1 = _pixel_interval(rect.x, rect.x2, self.pixel_size_nm,
                                         width)
            if row1 > row0 and col1 > col0:  # else it rasterises to nothing
                grid.add(col0, row0, col1, row1)

    # ------------------------------------------------------------------ #
    # the reader protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def pixel_size_nm(self) -> float:
        return self._pixel_size_nm

    @property
    def layers(self) -> Tuple[str, ...]:
        """Layers :meth:`read_window` rasterises (read-only, like every
        input of a window)."""
        return self._layers

    def read_window(self, row: int, col: int, height: int,
                    width: int) -> np.ndarray:
        if height <= 0 or width <= 0:
            raise ValueError("window dimensions must be positive")
        out = np.zeros((height, width), dtype=np.uint8)
        row0, col0 = max(row, 0), max(col, 0)
        row1 = min(row + height, self._shape[0])
        col1 = min(col + width, self._shape[1])
        if row1 <= row0 or col1 <= col0:
            self.last_candidates = 0
            return out
        # Counted in a local and published once: threads may read windows
        # of one reader at the same time.
        count = 0
        for layer in self.layers:
            grid = self._indices[layer]
            candidates = grid.query(col0, row0, col1, row1)
            count += len(candidates)
            for index in candidates:
                left, top, right, bottom = grid.boxes[index]
                top, bottom = max(top, row0), min(bottom, row1)
                left, right = max(left, col0), min(right, col1)
                if bottom > top and right > left:
                    out[top - row:bottom - row, left - col:right - col] = 1
        self.last_candidates = count
        return out

    def digest(self) -> str:
        """Canonical shape digest — the campaign identity of this layout.

        Hashes the raster geometry (shape + pixel pitch + rasterised layers)
        and every indexed shape's **clipped integer pixel interval**, sorted
        and de-duplicated per layer.  The digest is therefore invariant
        under shape insertion order, shapes that rasterise outside the
        raster, and any nm-level jitter below the pixel-centre sampling —
        exactly the equivalences of the dense raster — without touching a
        single pixel.  (Two different interval decompositions of the same
        covered area do hash differently; decompose consistently.)
        """
        return layout_digest(self._shape, self.pixel_size_nm, (
            (layer, ((row0, row1, col0, col1) for col0, row0, col1, row1
                     in self._indices[layer].boxes))
            for layer in self.layers))
