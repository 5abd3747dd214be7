"""Large-layout tiling: split, image in batches, stitch (the full-chip path).

The seed's imaging stack only accepted masks of exactly ``tile_size_px``
pixels.  Production lithography verification runs on whole layouts, so this
module lifts the restriction: an arbitrary ``(H, W)`` layout raster is split
into overlapping tiles, each tile carries a **guard band** of surrounding
context, the tiles are imaged in vectorised batches and only each tile's
interior *core* is written back into the stitched result.

Guarantees
----------
* Splitting followed by stitching is the identity on the layout itself:
  every layout pixel belongs to exactly one tile core.
* With ``guard_px = 0`` and a layout whose sides divide evenly into cores,
  the stitched aerial equals per-tile imaging bit for bit — the machinery
  adds no error of its own.
* With a non-zero guard band, each tile sees the true neighbouring layout
  content up to ``guard_px`` pixels beyond its core (zeros beyond the layout
  boundary).  Partially coherent imaging is short-ranged — the mutual
  coherence decays over roughly ``lambda / (2 sigma NA)`` — so the seam error
  in the stitched interior decays rapidly (and monotonically) as the guard
  widens; it is *not* exactly zero because the optical point-spread function
  has unbounded support.  Choose ``guard_px`` of the order of the kernel
  window for production work; :func:`default_guard_px` applies that rule.

The functions here are the plain cut-all / stitch-all statement of that
contract (:func:`extract_tiles`, :func:`stitch_tiles`): the layout pipeline
(:mod:`repro.engine.streaming`) plans with :func:`plan_tiles` and reads and
stitches window by window itself, bit for bit what these produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..layout.reader import as_layout_reader


@dataclass(frozen=True)
class TilingSpec:
    """Tile geometry: full tile size and the guard band kept on every side."""

    tile_px: int
    guard_px: int = 0

    def __post_init__(self) -> None:
        if self.tile_px <= 0:
            raise ValueError("tile_px must be positive")
        if self.guard_px < 0:
            raise ValueError("guard_px must be non-negative")
        if 2 * self.guard_px >= self.tile_px:
            raise ValueError(
                f"guard band {self.guard_px} px leaves no tile core "
                f"(tile is {self.tile_px} px)")

    @property
    def core_px(self) -> int:
        """Interior pixels per tile that end up in the stitched result."""
        return self.tile_px - 2 * self.guard_px


@dataclass(frozen=True)
class TilePlacement:
    """Core origin and extent of one tile within the layout raster."""

    row: int
    col: int
    core_h: int
    core_w: int


def default_guard_px(kernel_shape: Tuple[int, int], tile_px: int) -> int:
    """Guard band sized to the optical kernel window (clamped to a valid core)."""
    guard = max(kernel_shape[-2], kernel_shape[-1])
    return int(min(guard, max((tile_px - 1) // 2 - 1, 0)))


def plan_tiles(height: int, width: int, spec: TilingSpec) -> List[TilePlacement]:
    """Row-major tile cores covering an ``(H, W)`` layout exactly once."""
    if height <= 0 or width <= 0:
        raise ValueError("layout dimensions must be positive")
    core = spec.core_px
    placements = []
    for row in range(0, height, core):
        for col in range(0, width, core):
            placements.append(TilePlacement(
                row=row, col=col,
                core_h=min(core, height - row),
                core_w=min(core, width - col)))
    return placements


def extract_tiles(layout, spec: TilingSpec,
                  ) -> Tuple[np.ndarray, List[TilePlacement]]:
    """Cut a layout into guard-banded tiles ``(N, tile_px, tile_px)``.

    ``layout`` is a dense 2-D array (a ``numpy.memmap`` pages in only the
    windows read) or a :class:`repro.layout.LayoutReader`: one
    ``read_window`` per placement, zeros beyond the layout boundary (an
    empty reticle).  The stack is allocated once, in the first window's
    dtype, and filled window by window.
    """
    reader = as_layout_reader(layout)
    placements = plan_tiles(*reader.shape, spec)
    tile, guard = spec.tile_px, spec.guard_px
    windows = (reader.read_window(place.row - guard, place.col - guard,
                                  tile, tile) for place in placements)
    first = next(windows)
    tiles = np.empty((len(placements),) + first.shape, dtype=first.dtype)
    tiles[0] = first
    for index, window in enumerate(windows, start=1):
        tiles[index] = window
    return tiles, placements


def stitch_tiles(tile_images: np.ndarray, placements: Sequence[TilePlacement],
                 height: int, width: int, spec: TilingSpec) -> np.ndarray:
    """Reassemble per-tile images into the layout raster, dropping guard bands."""
    tile_images = np.asarray(tile_images)
    if tile_images.ndim != 3:
        raise ValueError("tile_images must have shape (N, tile_px, tile_px)")
    if len(tile_images) != len(placements):
        raise ValueError(
            f"{len(tile_images)} tile images for {len(placements)} placements")
    out = np.zeros((height, width), dtype=tile_images.dtype)
    guard = spec.guard_px
    for image, place in zip(tile_images, placements):
        out[place.row:place.row + place.core_h,
            place.col:place.col + place.core_w] = (
            image[guard:guard + place.core_h, guard:guard + place.core_w])
    return out
