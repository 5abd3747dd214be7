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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


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


def extract_tile_batch(layout: np.ndarray, placements: Sequence[TilePlacement],
                       spec: TilingSpec, with_digests: bool = False):
    """Cut the guard-banded tiles of a subset of placements from a layout.

    The layout pipeline calls this once per batch of placements, so with
    bounded batches the full tile stack is never materialised;
    ``extract_tiles`` is the all-placements special case.  ``layout`` may be any 2-D array-like
    including a ``numpy.memmap`` — only the windows actually read are paged
    in — or a windowed :class:`repro.layout.LayoutReader` (anything with a
    ``read_window`` method), in which case each guard-banded tile is
    rasterised on demand and the dense raster never exists.  Content beyond
    the layout boundary is zero (an empty reticle) on every path.

    With ``with_digests=True`` the return value is ``(windows, digests)``
    for the tile-result cache (:mod:`repro.engine.tile_cache`): no stack is
    built — each window stays the array the reader returned, in the
    reader's dtype, hashed in place — because the cache stacks and casts
    only the tiles it has to image.  All-zero windows are tagged
    ``ZERO_TILE_DIGEST`` and their list slot is ``None``; readers exposing
    ``window_is_empty`` (the bundled readers do) have them detected from
    geometry alone, without being rasterised or hashed.
    """
    if not hasattr(layout, "read_window"):
        # Dense arrays speak the same protocol through the adapter, so the
        # zero-padded window-clipping arithmetic lives in exactly one place
        # (ArrayLayoutReader.read_window).
        from ..layout.reader import ArrayLayoutReader

        layout = ArrayLayoutReader(np.asarray(layout))
    tile, guard = spec.tile_px, spec.guard_px
    if not with_digests:
        # np.empty, not np.zeros: every row is fully overwritten below
        # (pinned by tests/test_tile_cache.py), so the O(batch) memset would
        # be pure waste.
        tiles = np.empty((len(placements), tile, tile),
                         dtype=getattr(layout, "dtype", float))
        for index, place in enumerate(placements):
            tiles[index] = layout.read_window(place.row - guard,
                                              place.col - guard, tile, tile)
        return tiles
    from .tile_cache import ZERO_TILE_DIGEST, tile_digest

    window_is_empty = getattr(layout, "window_is_empty", None)
    windows, digests = [], []
    for place in placements:
        row, col = place.row - guard, place.col - guard
        window = None
        if window_is_empty is None or not window_is_empty(row, col,
                                                          tile, tile):
            window = layout.read_window(row, col, tile, tile)
            if not window.any():
                window = None
        windows.append(window)
        digests.append(ZERO_TILE_DIGEST if window is None
                       else tile_digest(window))
    return windows, digests


def extract_tiles(layout: np.ndarray, spec: TilingSpec,
                  ) -> Tuple[np.ndarray, List[TilePlacement]]:
    """Cut a layout into guard-banded tiles ``(N, tile_px, tile_px)``.

    Each tile window extends ``guard_px`` pixels beyond its core on every
    side; content beyond the layout boundary is zero (an empty reticle).
    ``layout`` may be a dense array or a windowed layout reader (see
    :func:`extract_tile_batch`).
    """
    if not hasattr(layout, "read_window"):
        layout = np.asarray(layout)
    if len(layout.shape) != 2:
        raise ValueError("layout must be a 2-D image")
    placements = plan_tiles(layout.shape[0], layout.shape[1], spec)
    return extract_tile_batch(layout, placements, spec), placements


def stitch_into(out: np.ndarray, tile_images: Sequence[np.ndarray],
                placements: Sequence[TilePlacement], spec: TilingSpec) -> None:
    """Write each tile's interior core into ``out`` at its placement.

    ``out`` is any preallocated ``(H, W)`` array — an in-memory buffer or a
    ``numpy.memmap`` — so the layout pipeline can stitch one batch at
    a time without holding the assembled raster and the tile stack together.
    ``tile_images`` is an ``(N, tile_px, tile_px)`` stack or any sequence of
    ``(tile_px, tile_px)`` images (the tile cache's per-row references); it
    is read row by row and never stacked.  Every layout pixel belongs to
    exactly one core, so repeated calls over disjoint placement batches
    write each output pixel exactly once.
    """
    if len(tile_images) != len(placements):
        raise ValueError(
            f"{len(tile_images)} tile images for {len(placements)} placements")
    guard = spec.guard_px
    for image, place in zip(tile_images, placements):
        out[place.row:place.row + place.core_h,
            place.col:place.col + place.core_w] = (
            image[guard:guard + place.core_h, guard:guard + place.core_w])


def stitch_tiles(tile_images: np.ndarray, placements: Sequence[TilePlacement],
                 height: int, width: int, spec: TilingSpec) -> np.ndarray:
    """Reassemble per-tile images into the layout raster, dropping guard bands."""
    tile_images = np.asarray(tile_images)
    if tile_images.ndim != 3:
        raise ValueError("tile_images must have shape (N, tile_px, tile_px)")
    out = np.zeros((height, width), dtype=tile_images.dtype)
    stitch_into(out, tile_images, placements, spec)
    return out
