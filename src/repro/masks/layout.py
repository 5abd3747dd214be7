"""Layout container: named layers of rectangles plus tile rasterisation.

A :class:`Layout` is a minimal stand-in for the GDS/OASIS data the paper's
benchmarks ship: enough structure to place shapes on layers, clip out tiles
and rasterise them for the lithography simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

import numpy as np

from ..layout.geometry import Rect, rasterize


@dataclass
class Layout:
    """A collection of rectangles organised by layer name, in nm coordinates."""

    extent_nm: float
    layers: Dict[str, List[Rect]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.extent_nm <= 0:
            raise ValueError("layout extent must be positive")

    def add(self, layer: str, shape: Rect) -> None:
        """Add one rectangle to ``layer`` (created on first use)."""
        self.layers.setdefault(layer, []).append(shape)

    def shapes(self, layer: str) -> List[Rect]:
        return list(self.layers.get(layer, []))

    def clip(self, origin_x: float, origin_y: float, size_nm: float) -> "Layout":
        """Clip a square window into a new layout with coordinates relative to the window."""
        if size_nm <= 0:
            raise ValueError("clip size must be positive")
        window = Rect(origin_x, origin_y, size_nm, size_nm)
        clipped = Layout(extent_nm=size_nm)
        for layer, shapes in self.layers.items():
            for shape in shapes:
                if not shape.intersects(window):
                    continue
                x1 = max(shape.x, window.x)
                y1 = max(shape.y, window.y)
                x2 = min(shape.x2, window.x2)
                y2 = min(shape.y2, window.y2)
                if x2 > x1 and y2 > y1:
                    clipped.add(layer, Rect(x1 - origin_x, y1 - origin_y, x2 - x1, y2 - y1))
        return clipped

    def rasterize(self, layer: str, tile_size_px: int) -> np.ndarray:
        """Binary mask image of ``layer`` sampled at ``extent_nm / tile_size_px`` per pixel."""
        pixel_size_nm = self.extent_nm / tile_size_px
        return rasterize(self.layers.get(layer, []), tile_size_px, pixel_size_nm)


@dataclass(frozen=True)
class Tile:
    """One benchmark tile: a rasterised mask plus provenance metadata."""

    mask: np.ndarray
    layer: str
    dataset: str
    index: int
    pixel_size_nm: float

    @property
    def tile_size_px(self) -> int:
        return self.mask.shape[0]

    @property
    def extent_nm(self) -> float:
        return self.tile_size_px * self.pixel_size_nm


def iter_tiles(layout: Layout, layer: str, tile_size_px: int, tile_extent_nm: float,
               dataset: str = "layout") -> Iterator[Tile]:
    """Iterate non-overlapping tiles covering a layout (row-major order)."""
    if tile_extent_nm <= 0:
        raise ValueError("tile extent must be positive")
    steps = int(layout.extent_nm // tile_extent_nm)
    pixel_size_nm = tile_extent_nm / tile_size_px
    index = 0
    for row in range(steps):
        for col in range(steps):
            clip = layout.clip(col * tile_extent_nm, row * tile_extent_nm, tile_extent_nm)
            mask = clip.rasterize(layer, tile_size_px)
            yield Tile(mask=mask, layer=layer, dataset=dataset, index=index,
                       pixel_size_nm=pixel_size_nm)
            index += 1
