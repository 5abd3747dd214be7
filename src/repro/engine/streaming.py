"""The layout-imaging pipeline: generator-fed tile batches, incremental stitch.

:func:`stream_image_layout` is the one implementation of the tile operation
chain; ``ExecutionEngine.image_layout`` (which ``ShardedExecutor`` forwards
to) hands it the engine's ``image_batch``, resist model, batch size and tile
cache.  The layout is always a windowed :class:`repro.layout.LayoutReader` —
the engine wraps a dense raster or ``numpy.memmap`` once, on the way in:

1. tile *placements* are planned up front (cheap metadata, no pixels),
2. a generator reads one guard-banded window per placement, one batch of
   placements at a time (:func:`iter_tile_batches`) — every batch has the
   same shape: the reader's own windows,
3. the one fork: with a tile cache each window is digested as read (an
   all-zero one is tagged, not hashed) and the cache stage images only the
   batch's first-occurrence misses; without one the windows fill a single
   preallocated stack for the ordinary batched core, and
4. each batch's interior cores are stitched **incrementally** into the
   output — a plain array, or a ``numpy.memmap`` when an ``out_dir`` is
   given — and developed core by core.

Every layout — dense raster or reader, with or without an ``out_dir`` —
defaults to batches of ``ExecutionEngine.stream_batch_tiles`` tiles, so an
arbitrarily large layout images in **O(tile-batch) RAM**.

Because every batch is fully consumed (stitched + developed) before the next
one is requested, a device-resident engine passes a single reusable host
staging buffer as ``aerial_batch``'s ``out=`` — downloads land in pinned
memory (where the backend provides it) and the per-batch host allocation
disappears; the engine wires this up automatically.

Bit-for-bit guarantee
---------------------
Per-tile FFT work is independent of how the batch axis is chunked (the
invariant pinned since PR 1 by ``tests/test_engine.py``) and every layout
pixel belongs to exactly one tile core, so the result does not depend on
the batch size, the tile cache or the thread count: each equals the plain
cut-all / image-once / stitch reference (``tests/reference.py``) **bit for
bit** across guard bands, backends and precisions — pinned by
``tests/test_streaming.py``.

Memmap directory layout (``out_dir``)
-------------------------------------
``out_dir/`` holds self-describing ``.npy`` memmaps plus a JSON sidecar:

* ``aerial.npy``  — stitched aerial intensities, shape ``(H, W)``, the
  engine's real dtype (float64 / float32), written via
  ``numpy.lib.format.open_memmap`` so ``np.load(..., mmap_mode="r")`` reads
  it without copying;
* ``resist.npy``  — developed binary resist, shape ``(H, W)``, uint8;
* ``meta.json``   — provenance: layout shape, dtypes, tile/guard geometry,
  tile count and the writing engine's backend/precision names.

The files are created at full size once the first batch is imaged (a
rejected call leaves none behind) and filled core-by-core;
:func:`open_layout_dir` reopens a completed directory.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cache import atomic_write
from .tile_cache import TileCacheStats, tile_digest
from .tiling import (
    TilePlacement,
    TilingSpec,
    extract_tile_batch,
    plan_tiles,
    stack_windows,
    stitch_into,
)

AERIAL_FILE = "aerial.npy"
RESIST_FILE = "resist.npy"
META_FILE = "meta.json"


def iter_tile_batches(reader, placements: Sequence[TilePlacement],
                      spec: TilingSpec, batch_tiles: int,
                      ) -> Iterator[Tuple[Iterator[np.ndarray],
                                          List[TilePlacement]]]:
    """Yield ``(windows, placements)`` batches of at most ``batch_tiles`` tiles.

    ``windows`` is :func:`~repro.engine.tiling.extract_tile_batch`'s lazy
    iterator over the batch — consume it before asking for the next batch.
    Windows are rasterised one by one as they are consumed and the dense
    raster never exists, so peak RAM for layout data is O(one batch) end to
    end.
    """
    if batch_tiles < 1:
        raise ValueError("batch_tiles must be at least 1")
    for start in range(0, len(placements), batch_tiles):
        subset = list(placements[start:start + batch_tiles])
        yield extract_tile_batch(reader, subset, spec), subset


def _allocate(out_dir: Optional[str], name: str, shape: Tuple[int, int],
              dtype) -> np.ndarray:
    """A zeroed ``(H, W)`` output: in-memory, or a ``.npy`` memmap under ``out_dir``."""
    if out_dir is None:
        return np.zeros(shape, dtype=dtype)
    os.makedirs(out_dir, exist_ok=True)
    return np.lib.format.open_memmap(os.path.join(out_dir, name), mode="w+",
                                     dtype=np.dtype(dtype), shape=shape)


def stream_image_layout(reader, tiling: TilingSpec,
                        image_batch: Callable[[np.ndarray], np.ndarray],
                        develop: Callable[[np.ndarray], np.ndarray],
                        real_dtype, batch_tiles: int,
                        out_dir: Optional[str] = None,
                        meta: Optional[dict] = None,
                        tile_cache=None, cache_context=None,
                        ) -> Tuple[np.ndarray, np.ndarray, int,
                                   Optional[TileCacheStats]]:
    """Image a layout batch by batch into its aerial / resist rasters.

    Parameters
    ----------
    image_batch:
        ``(B, tile, tile) -> (B, tile, tile)`` aerial imaging of one batch —
        an engine's ``aerial_batch``, or a wrapper of it staging the
        downloads through one host buffer.
    develop:
        Elementwise resist development applied to each stitched core (the
        constant-threshold model; elementwise, so per-core application
        equals whole-raster application exactly).
    batch_tiles:
        Tiles per batch; peak RAM is O(this batch), independent of the
        layout size.
    out_dir:
        When given, aerial / resist become disk-backed memmaps in the
        documented directory layout and ``meta.json`` is written on success.
    tile_cache / cache_context:
        Optional :class:`~repro.engine.tile_cache.TileResultCache` plus its
        :class:`~repro.engine.tile_cache.TileCacheContext`: each batch is
        deduplicated to its unique tile contents, ``image_batch`` sees only
        first-occurrence misses, and the stitch reads every other core
        straight out of the cache's entries — bit-for-bit the uncached
        result (per-tile FFT work is independent of batch composition).

    Returns ``(aerial, resist, num_tiles, tile_stats)``; the arrays are
    memmaps when ``out_dir`` was given (flushed before returning), and
    ``tile_stats`` sums this call's cache tallies (``None`` without a tile
    cache), untouched by other threads sharing the cache.  ``reader`` is a
    :class:`repro.layout.LayoutReader` (``image_layout`` wraps dense arrays
    on the way in).  Every argument is validated before ``out_dir`` is
    touched.
    """
    if tile_cache is not None and cache_context is None:
        raise ValueError("tile_cache requires a cache_context")
    height, width = reader.shape
    placements = plan_tiles(height, width, tiling)

    guard = tiling.guard_px
    aerial = resist = None  # allocated below; a bad batch_tiles raises first
    tile_stats = TileCacheStats() if tile_cache is not None else None
    for windows, subset in iter_tile_batches(reader, placements, tiling,
                                             batch_tiles):
        if tile_cache is not None:
            # Windows stay as the reader made them, each hashed as soon as
            # it is read (still hot in cache); only misses get stacked.
            kept, digests = [], []
            for window in windows:
                kept.append(window)
                digests.append(tile_digest(window))
            aerial_tiles, tally = tile_cache.image_tile_batch(
                kept, digests, image_batch, cache_context)
            tile_stats += tally
        else:
            aerial_tiles = image_batch(stack_windows(windows, len(subset)))
        if aerial is None:
            # Allocated once the first batch is back, not up front: zeroed
            # rasters touched before imaging would sit in RAM next to the
            # batch's FFT intermediates and raise the peak by their size.
            aerial = _allocate(out_dir, AERIAL_FILE, (height, width),
                               real_dtype)
            resist = _allocate(out_dir, RESIST_FILE, (height, width),
                               np.uint8)
        stitch_into(aerial, aerial_tiles, subset, tiling)
        # Development is elementwise, so the resist is filled from the
        # just-imaged cores without ever thresholding the full raster.
        for image, place in zip(aerial_tiles, subset):
            core = image[guard:guard + place.core_h,
                         guard:guard + place.core_w]
            resist[place.row:place.row + place.core_h,
                   place.col:place.col + place.core_w] = develop(core)

    if out_dir is not None:
        aerial.flush()
        resist.flush()
        payload = {
            "shape": [int(height), int(width)],
            "aerial_dtype": str(np.dtype(real_dtype)),
            "resist_dtype": "uint8",
            "tile_px": int(tiling.tile_px),
            "guard_px": int(tiling.guard_px),
            "num_tiles": len(placements),
        }
        payload.update(meta or {})
        # The completion marker of the directory: published whole or not
        # at all.
        with atomic_write(os.path.join(out_dir, META_FILE)) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return aerial, resist, len(placements), tile_stats


def open_layout_dir(out_dir: str, mmap_mode: str = "r",
                    ) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Reopen a streamed layout directory as ``(aerial, resist, meta)``.

    Arrays come back as read-only memmaps (``mmap_mode="r"``), so inspecting
    a huge streamed result costs no RAM beyond the pages actually touched.
    """
    meta_path = os.path.join(out_dir, META_FILE)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(
            f"{out_dir} is not a completed streamed-layout directory "
            f"(missing {META_FILE})")
    with open(meta_path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    aerial = np.load(os.path.join(out_dir, AERIAL_FILE), mmap_mode=mmap_mode)
    resist = np.load(os.path.join(out_dir, RESIST_FILE), mmap_mode=mmap_mode)
    return aerial, resist, meta
