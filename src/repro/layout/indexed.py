"""Spatially-indexed geometry reader: O(window) window queries over shapes.

A full-chip layout holds millions of rectangles; rasterising a 256 px tile
must not iterate all of them.  :class:`GeometryLayoutReader` indexes every
shape into a per-layer **bucket grid** at construction: the raster is divided
into ``DEFAULT_BUCKET_PX``-sized cells and each shape is registered with every
cell its pixel footprint overlaps.  A window query then gathers candidates from
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
    geometry (shape + pixel pitch).  Every reader of geometry — flat or
    hierarchical — hashes through here, so equal rasterised geometry is one
    identity whichever reader loaded it.
    """
    digest = hashlib.sha256()
    digest.update(f"repro-layout-reader|shape={shape}"
                  f"|pixel={pixel_size_nm!r}".encode("ascii"))
    for layer, spans in intervals:
        digest.update(f"|layer={layer}:".encode("utf-8"))
        for interval in sorted(set(spans)):
            digest.update(repr(interval).encode("ascii"))
    return digest.hexdigest()


class _BucketGrid:
    """One layer's spatial index: bucket cell -> ids of overlapping shapes."""

    def __init__(self):
        self.rows0: List[int] = []
        self.rows1: List[int] = []
        self.cols0: List[int] = []
        self.cols1: List[int] = []
        self.buckets: Dict[Tuple[int, int], List[int]] = {}

    def __len__(self) -> int:
        return len(self.rows0)

    def add(self, row0: int, row1: int, col0: int, col1: int) -> None:
        """Register one shape's (clipped, half-open) pixel rectangle."""
        if row1 <= row0 or col1 <= col0:
            return  # rasterises to nothing — never worth indexing
        index = len(self.rows0)
        self.rows0.append(row0)
        self.rows1.append(row1)
        self.cols0.append(col0)
        self.cols1.append(col1)
        size = DEFAULT_BUCKET_PX
        for brow in range(row0 // size, (row1 - 1) // size + 1):
            for bcol in range(col0 // size, (col1 - 1) // size + 1):
                self.buckets.setdefault((brow, bcol), []).append(index)

    def query(self, row0: int, row1: int, col0: int, col1: int) -> List[int]:
        """Candidate shape ids whose buckets overlap the pixel window."""
        if row1 <= row0 or col1 <= col0:
            return []
        size = DEFAULT_BUCKET_PX
        candidates: set = set()
        for brow in range(row0 // size, (row1 - 1) // size + 1):
            for bcol in range(col0 // size, (col1 - 1) // size + 1):
                candidates.update(self.buckets.get((brow, bcol), ()))
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
    layers:
        Layers rasterised by :meth:`read_window` (default: all, unioned —
        a mask is bright wherever any selected layer has a shape).

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
                 extent_nm: Optional[float] = None,
                 layers: Optional[Iterable[str]] = None):
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
        self._layers = tuple(sorted(self._indices)) if layers is None \
            else tuple(layers)
        for layer in self.layers:
            self._indices.setdefault(layer, _BucketGrid())

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _add_shape(self, layer: str, item: Shape) -> None:
        """Index one rectangle or rectilinear polygon on ``layer`` (at
        construction only: a reader's windows never change afterwards)."""
        rects = item.to_rects() if isinstance(item, Polygon) else [item]
        grid = self._indices.setdefault(layer, _BucketGrid())
        height, width = self._shape
        for rect in rects:
            row0, row1 = _pixel_interval(rect.y, rect.y2, self.pixel_size_nm,
                                         height)
            col0, col1 = _pixel_interval(rect.x, rect.x2, self.pixel_size_nm,
                                         width)
            grid.add(row0, row1, col0, col1)

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
            candidates = grid.query(row0, row1, col0, col1)
            count += len(candidates)
            for index in candidates:
                top = max(grid.rows0[index], row0)
                bottom = min(grid.rows1[index], row1)
                left = max(grid.cols0[index], col0)
                right = min(grid.cols1[index], col1)
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
        grids = ((layer, self._indices[layer]) for layer in self.layers)
        return layout_digest(self._shape, self.pixel_size_nm, (
            (layer, zip(grid.rows0, grid.rows1, grid.cols0, grid.cols1))
            for layer, grid in grids))
