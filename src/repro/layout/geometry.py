"""Layout geometry primitives: rectangles, polygons and rasterisation.

Masks in this reproduction are Manhattan layouts (as in the ICCAD-2013 and
ISPD-2019 benchmarks); the primitives below are sufficient to describe them
and to rasterise them onto the pixel grid consumed by the optics substrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in nanometre coordinates (x grows right, y grows down)."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("rectangle width and height must be positive")

    @property
    def x2(self) -> float:
        return self.x + self.width

    @property
    def y2(self) -> float:
        return self.y + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def centre(self) -> Tuple[float, float]:
        return self.x + self.width / 2.0, self.y + self.height / 2.0

    def intersects(self, other: "Rect") -> bool:
        return not (self.x2 <= other.x or other.x2 <= self.x
                    or self.y2 <= other.y or other.y2 <= self.y)

    def expanded(self, margin: float) -> "Rect":
        """Rectangle grown by ``margin`` on every side (negative margins shrink)."""
        new_width = self.width + 2 * margin
        new_height = self.height + 2 * margin
        if new_width <= 0 or new_height <= 0:
            raise ValueError("expansion margin collapses the rectangle")
        return Rect(self.x - margin, self.y - margin, new_width, new_height)

    def translated(self, dx: float, dy: float) -> "Rect":
        return Rect(self.x + dx, self.y + dy, self.width, self.height)


@dataclass(frozen=True)
class Polygon:
    """Rectilinear polygon given as a vertex list (used for L/T/U shaped metal)."""

    vertices: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least three vertices")

    def bounding_box(self) -> Rect:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return Rect(min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys))

    def to_rects(self) -> List[Rect]:
        """Decompose into rectangles by vertical slab sweep (rectilinear polygons only).

        Degenerate input degrades gracefully rather than raising: zero-area
        spans (coincident crossings from pinched or zero-height features)
        and zero-width slabs are skipped, and a fully degenerate polygon
        (collinear vertices) decomposes to an empty list — it rasterises to
        nothing either way.
        """
        xs = sorted({v[0] for v in self.vertices})
        rects: List[Rect] = []
        for x1, x2 in zip(xs[:-1], xs[1:]):
            mid = (x1 + x2) / 2.0
            spans = _vertical_spans(self.vertices, mid)
            for y1, y2 in spans:
                if y2 > y1:  # skip zero-area spans instead of raising
                    rects.append(Rect(x1, y1, x2 - x1, y2 - y1))
        return rects


def _vertical_spans(vertices: Sequence[Tuple[float, float]], x: float) -> List[Tuple[float, float]]:
    """Interior y-spans of a rectilinear polygon at abscissa ``x`` (ray casting on edges)."""
    crossings: List[float] = []
    count = len(vertices)
    for i in range(count):
        (x1, y1), (x2, y2) = vertices[i], vertices[(i + 1) % count]
        if y1 == y2:  # horizontal edge: contributes a crossing if it spans x
            lo, hi = min(x1, x2), max(x1, x2)
            if lo <= x < hi:
                crossings.append(y1)
    crossings.sort()
    spans = []
    for i in range(0, len(crossings) - 1, 2):
        spans.append((crossings[i], crossings[i + 1]))
    return spans


def _pixel_interval(lo_nm: float, hi_nm: float, pixel_size_nm: float,
                    limit: int) -> Tuple[int, int]:
    """Half-open pixel-index interval of a 1-D nm span, clipped to [0, limit).

    The one statement of the pixel-centre rule (:func:`rasterize` and both
    geometry readers call it): a pixel belongs to the span when its centre
    ``(i + 0.5) * pixel`` lies inside it.
    """
    start = math.ceil(lo_nm / pixel_size_nm - 0.5)
    stop = math.floor(hi_nm / pixel_size_nm - 0.5) + 1
    return max(start, 0), min(stop, limit)


def rasterize(shapes: Iterable[Rect], tile_size_px: int, pixel_size_nm: float) -> np.ndarray:
    """Rasterise rectangles onto a ``tile_size_px x tile_size_px`` binary mask.

    A pixel is set when its centre falls inside a rectangle, matching the
    sampling convention of the benchmark mask images.
    """
    if tile_size_px <= 0 or pixel_size_nm <= 0:
        raise ValueError("tile size and pixel size must be positive")
    mask = np.zeros((tile_size_px, tile_size_px), dtype=float)
    for shape in shapes:
        col_start, col_stop = _pixel_interval(shape.x, shape.x2,
                                              pixel_size_nm, tile_size_px)
        row_start, row_stop = _pixel_interval(shape.y, shape.y2,
                                              pixel_size_nm, tile_size_px)
        if col_stop > col_start and row_stop > row_start:
            mask[row_start:row_stop, col_start:col_stop] = 1.0
    return mask
