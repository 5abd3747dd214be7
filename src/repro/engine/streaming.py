"""The layout-imaging pipeline: windows in, stitched and developed cores out.

:func:`stream_image_layout` is the one implementation of the tile operation
chain; ``ExecutionEngine.image_layout`` (which ``ShardedExecutor`` forwards
to) hands it the engine's imaging loop, resist model, batch size, tile
cache and share rule.  The layout is always a windowed
:class:`repro.layout.LayoutReader` — the engine wraps a dense raster or
``numpy.memmap`` once, on the way in:

1. tile *placements* are planned up front (cheap metadata, no pixels),
2. the one fork: without a tile cache the engine's imaging loop
   (:func:`repro.engine.batched.image_tiles`) takes all of them, and each
   of its thread shares reads its placements' guard-banded windows into
   its own block-sized mask buffer; with one, the placements go through
   the cache one batch at a time: each window is digested (an all-zero
   one is tagged, not hashed) and the cache hands the same loop only the
   batch's first-occurrence misses — its shares read each miss's window
   into their mask buffers and write each image's core into the cache
   entry it becomes,
3. every tile's interior core is stitched straight into the output — a
   plain array, or a ``numpy.memmap`` when an ``out_dir`` is given — and
   developed core by core: inside the imaging share that made it on the
   uncached path; batch by batch, from the cache's core entries, in the
   same shares on the cached one (:func:`repro.engine.batched.run_shares`),
   so a warm op that images nothing still spends its worker budget on the
   stitch.

A repeat op reads only its misses.  A file-backed geometry reader
(:class:`~repro.layout.HierarchicalLayoutReader`,
:class:`~repro.layout.GeometryLayoutReader`) never changes its windows
after construction, so the cached branch keeps each window's digest per
reader, keyed by the ``read_window`` arguments, and reads a window only
when the cache has to image it: a warm op on a kept reader
(:func:`repro.layout.load_layout_source`) reads no window at all.  An
:class:`~repro.layout.ArrayLayoutReader` — it may wrap a caller's mutable
array or memmap — and any other reader have every window read and hashed
on every call.

An arbitrarily large layout — dense or not, ``out_dir`` or not — therefore
images in **O(threads x block) RAM** beside its output uncached, and in
O(tile-batch) RAM (``ExecutionEngine.stream_batch_tiles`` tiles) beside its
output and the cache's budget cached: a miss stays in its share's buffers
until its core lands in the entry, so no batch-sized stack is built.

Bit-for-bit guarantee
---------------------
Per-tile FFT work is independent of how the batch axis is chunked and
every layout pixel belongs to exactly one tile core, so the result does not
depend on the batch size, the tile cache, the kept digests or the thread
count: each equals the plain cut-all / image-once / stitch reference
(``tests/reference.py``) **bit for bit** across guard bands, backends and
precisions — pinned by ``tests/test_streaming.py``.

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

The files are created at full size once every argument is validated (a
rejected call leaves none behind) and filled core-by-core; ``meta.json`` is
written last, only when every tile is in, so a directory without it — a
call that raised while imaging, say — is incomplete.
:func:`open_layout_dir` reopens a completed directory.
"""

from __future__ import annotations

import json
import os
import threading
import weakref
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..layout.hierarchy import HierarchicalLayoutReader
from ..layout.indexed import GeometryLayoutReader
from .batched import run_shares
from .cache import atomic_write
from .tile_cache import TileCacheStats, tile_digest
from .tiling import TilingSpec, extract_tile_batch, plan_tiles

AERIAL_FILE = "aerial.npy"
RESIST_FILE = "resist.npy"
META_FILE = "meta.json"


#: Window digests kept per file-backed reader; past this many, the
#: reader's further windows are read and hashed on every call.
MAX_MEMO_WINDOWS = 2 ** 16

#: Readers whose windows are fixed at construction (exact types: a subclass
#: may not be).
_IMMUTABLE_READERS = (GeometryLayoutReader, HierarchicalLayoutReader)
#: reader -> {read_window arguments: tile_digest}; dies with its reader.
_WINDOW_DIGESTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_WINDOW_DIGESTS_LOCK = threading.Lock()


def _digest_windows(reader, windows: Sequence[Tuple[int, int, int, int]],
                   ) -> Tuple[List[str], List[Optional[np.ndarray]]]:
    """:func:`tile_digest` of each window (``read_window`` arguments).

    Returns ``(digests, read)``: ``read[i]`` is the window's array when it
    had to be read to digest it, ``None`` when the digest was kept from an
    earlier call on the same file-backed reader.
    """
    memo = None
    digests: List[Optional[str]] = [None] * len(windows)
    if type(reader) in _IMMUTABLE_READERS:
        with _WINDOW_DIGESTS_LOCK:
            memo = _WINDOW_DIGESTS.setdefault(reader, {})
            digests = [memo.get(window) for window in windows]
    read: List[Optional[np.ndarray]] = [None] * len(windows)
    fresh = {}
    for index, window in enumerate(windows):
        if digests[index] is None:
            read[index] = reader.read_window(*window)
            digests[index] = fresh[window] = tile_digest(read[index])
    if memo is not None and fresh:
        with _WINDOW_DIGESTS_LOCK:
            for window, digest in fresh.items():
                if len(memo) >= MAX_MEMO_WINDOWS:
                    break
                memo[window] = digest
    return digests, read


class _BatchWindows:
    """A batch's windows as :meth:`TileResultCache.image_tile_batch` reads
    them: the ones read to digest them, any other read on access — which
    the cache makes only for a first-occurrence miss, in the imaging share
    that images it."""

    def __init__(self, reader, windows, read) -> None:
        self._reader, self._windows, self._read = reader, windows, read

    def __len__(self) -> int:
        return len(self._windows)

    def __getitem__(self, index: int) -> np.ndarray:
        window = self._read[index]
        if window is None:
            window = self._reader.read_window(*self._windows[index])
        return window


def _allocate(out_dir: Optional[str], name: str, shape: Tuple[int, int],
              dtype) -> np.ndarray:
    """An ``(H, W)`` output for the cores to fill: in-memory, or a ``.npy``
    memmap under ``out_dir``."""
    if out_dir is None:
        # plan_tiles' cores cover every pixel exactly once: zeroing a heap
        # chunk malloc hands back (calloc's memset) would be pure waste.
        return np.empty(shape, dtype=dtype)
    os.makedirs(out_dir, exist_ok=True)
    return np.lib.format.open_memmap(os.path.join(out_dir, name), mode="w+",
                                     dtype=np.dtype(dtype), shape=shape)


def stream_image_layout(reader, tiling: TilingSpec,
                        image_tiles: Callable[[int, Callable, Callable],
                                              None],
                        develop: Callable[[np.ndarray], np.ndarray],
                        real_dtype, batch_tiles: int,
                        share_threads: Callable[[int], int],
                        out_dir: Optional[str] = None,
                        meta: Optional[dict] = None,
                        tile_cache=None, cache_context=None,
                        ) -> Tuple[np.ndarray, np.ndarray, int,
                                   Optional[TileCacheStats]]:
    """Image a layout into its aerial / resist rasters.

    Parameters
    ----------
    image_tiles:
        ``image_tiles(count, read, write)`` — the engine's imaging loop
        (:func:`repro.engine.batched.image_tiles` bound to its bank).
        Uncached, its ``read`` fills a share's mask buffer and its ``write``
        stitches and develops each core; cached, the tile cache calls it
        with its own ``read`` / ``write`` for each batch's misses.
    develop:
        Elementwise resist development applied to each stitched core, so
        per-core application equals whole-raster application exactly.
    batch_tiles:
        Tiles per tile-cache batch: peak RAM of that branch is O(this
        batch), independent of the layout size.
    share_threads:
        ``share_threads(count)``: the engine's share rule
        (:func:`repro.engine.batched.share_threads`), the shares each
        tile-cache batch is stitched and developed in.
    out_dir:
        When given, aerial / resist become disk-backed memmaps in the
        documented directory layout and ``meta.json`` is written on success.
    tile_cache / cache_context:
        Optional :class:`~repro.engine.tile_cache.TileResultCache` and its
        :class:`~repro.engine.tile_cache.TileCacheContext`: the imaging
        loop sees only each batch's first-occurrence misses, and the stitch
        reads every other core straight out of the cache's entries —
        bit-for-bit the uncached result.

    Returns ``(aerial, resist, num_tiles, tile_stats)``; the arrays are
    memmaps when ``out_dir`` was given (flushed before returning), and
    ``tile_stats`` sums this call's cache tallies (``None`` without a tile
    cache), untouched by other threads sharing the cache.  Every argument
    is validated before ``out_dir`` is touched, and ``meta.json`` is
    written only once every tile is in.
    """
    if tile_cache is not None and cache_context is None:
        raise ValueError("tile_cache requires a cache_context")
    if batch_tiles < 1:
        raise ValueError("batch_tiles must be at least 1")
    height, width = reader.shape
    placements = plan_tiles(height, width, tiling)

    guard = tiling.guard_px
    aerial = resist = None  # allocated below, once every argument passed

    def allocate() -> Tuple[np.ndarray, np.ndarray]:
        return (_allocate(out_dir, AERIAL_FILE, (height, width), real_dtype),
                _allocate(out_dir, RESIST_FILE, (height, width), np.uint8))

    def read(start: int, stop: int, buffer: np.ndarray) -> np.ndarray:
        for row, window in enumerate(extract_tile_batch(
                reader, placements[start:stop], tiling)):
            buffer[row] = window
        return buffer[:stop - start]

    def write(start: int, cores) -> None:
        # Cores are disjoint, so concurrent writers never touch one pixel;
        # development is elementwise, so the resist is filled core by core.
        # A core at the layout's far edge is only partly inside it.
        for core, place in zip(cores, placements[start:start + len(cores)]):
            rows = slice(place.row, place.row + place.core_h)
            cols = slice(place.col, place.col + place.core_w)
            core = core[:place.core_h, :place.core_w]
            aerial[rows, cols] = core
            resist[rows, cols] = develop(core)

    tile_stats = None
    if tile_cache is None:
        aerial, resist = allocate()
        image_tiles(len(placements), read, write)
    else:
        tile_stats = TileCacheStats()
        tile = tiling.tile_px
        for start in range(0, len(placements), batch_tiles):
            windows = [(place.row - guard, place.col - guard, tile, tile)
                       for place in placements[start:start + batch_tiles]]
            digests, read = _digest_windows(reader, windows)
            cores, tally = tile_cache.image_tile_batch(
                _BatchWindows(reader, windows, read), digests, image_tiles,
                cache_context)
            tile_stats += tally
            if aerial is None:
                # Allocated once the first batch is back, not up front: the
                # rasters would otherwise take the heap the batch's FFT
                # intermediates reuse from one call to the next, and a
                # fresh mapping faults in every page of them per call.
                # Unzeroed, a reused heap chunk costs no memset either.
                aerial, resist = allocate()
            run_shares(len(cores), share_threads(len(cores)),
                       lambda share: write(start + share.start,
                                           cores[share.start:share.stop]))

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


def open_layout_dir(out_dir: str) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Reopen a streamed layout directory as ``(aerial, resist, meta)``.

    Arrays come back as read-only memmaps, so inspecting
    a huge streamed result costs no RAM beyond the pages actually touched.
    """
    meta_path = os.path.join(out_dir, META_FILE)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(
            f"{out_dir} is not a completed streamed-layout directory "
            f"(missing {META_FILE})")
    with open(meta_path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    aerial = np.load(os.path.join(out_dir, AERIAL_FILE), mmap_mode="r")
    resist = np.load(os.path.join(out_dir, RESIST_FILE), mmap_mode="r")
    return aerial, resist, meta
