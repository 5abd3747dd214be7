"""Micro-benchmark — content-addressed tile dedup vs imaging every tile.

Real layouts repeat: instance arrays, standard-cell rows, empty space.  The
:class:`~repro.engine.tile_cache.TileResultCache` claims that a layout built
from a small cell library images only its *unique* tiles — everything else
is a content-addressed cache hit — and that the deduplicated result is
bit-for-bit the uncached one.  This benchmark builds a cell-array layout
(``CELLS`` distinct deterministic cells tiled over a preset-sized grid),
images it with and without the cache, and records

* ``dedup_speedup`` — uncached / cached wall-clock (min over ``REPEATS``
  runs against a fresh in-memory cache each time), asserted ``>= 3`` and
  gated in CI by ``benchmarks/compare_trajectory.py``,
* ``hit_rate`` — fraction of tiles served from the cache on a cold run,
  asserted ``> 0.9`` and gated (it is a deterministic property of the
  layout, not of the hardware), and
* ``warm_hit_rate`` — a second run against the now-warm cache, which must
  serve **every** tile (1.0, zero imaged), and
* ``warm_share`` — that all-hit run's wall-clock over the uncached run's
  (self-normalised, lower is better, gated): what a hit costs — window,
  digest, look-up, one copy into the raster — relative to imaging the tile.

Results land in ``benchmarks/results/tile_cache.{txt,json}``.
"""

import dataclasses
import os
import time

import numpy as np

from repro.backend import ComputeConfig
from repro.engine import ExecutionEngine, KernelBankCache, TileResultCache
from repro.optics import OpticsConfig
from repro.optics.source import AnnularSource

TILE = 128
PIXEL_NM = 4.0
#: Guard 0 keeps the cell array exactly tile-aligned, so repeats are
#: byte-identical; the correctness of guard-banded dedup is pinned by
#: tests/test_tile_cache.py, this file measures the win.
GUARD = 0
ORDER = 12
#: Distinct cells in the library; everything else on the canvas repeats.
CELLS = 4
#: Cell-array grid (rows, cols) of TILE-px cells per preset.
GRIDS = {"tiny": (8, 8), "small": (12, 16), "default": (16, 24)}
REPEATS = 2


def _cell(index: int) -> np.ndarray:
    """Deterministic line/space cell; each index gets a distinct pitch."""
    pitch = 8 + 4 * index
    rows = (np.arange(TILE) // pitch) % 2
    cols = (np.arange(TILE) // (pitch + 4)) % 2
    return (rows[:, None] ^ cols[None, :]).astype(float)


def _build_layout(grid) -> np.ndarray:
    rows, cols = grid
    library = [_cell(index) for index in range(CELLS)]
    canvas = np.empty((rows * TILE, cols * TILE))
    for row in range(rows):
        for col in range(cols):
            canvas[row * TILE:(row + 1) * TILE,
                   col * TILE:(col + 1) * TILE] = library[(row + col) % CELLS]
    return canvas


def _build_engine(cache_dir: str, tile_cache=None) -> ExecutionEngine:
    """Engine with the given live tile cache; none = caching off."""
    return ExecutionEngine.for_optics(
        OpticsConfig(tile_size_px=TILE, pixel_size_nm=PIXEL_NM,
                     max_socs_order=ORDER),
        source=AnnularSource(0.5, 0.8),
        cache=KernelBankCache(cache_dir=cache_dir),
        tile_cache=tile_cache, compute=ComputeConfig(tile_cache=False))


def test_tile_cache_dedup(preset, record_output, record_json, tmp_path):
    grid = GRIDS.get(preset, GRIDS["default"])
    layout = _build_layout(grid)
    bank_dir = str(tmp_path / "bank-cache")
    plain = _build_engine(bank_dir)

    def time_plain():
        start = time.perf_counter()
        result = plain.image_layout(layout, tile_px=TILE, guard_px=GUARD)
        return time.perf_counter() - start, result

    def time_cached():
        cache = TileResultCache()
        engine = _build_engine(bank_dir, tile_cache=cache)
        start = time.perf_counter()
        result = engine.image_layout(layout, tile_px=TILE, guard_px=GUARD)
        return time.perf_counter() - start, result, engine

    uncached_seconds, reference = min(
        (time_plain() for _ in range(REPEATS)), key=lambda run: run[0])
    cached_seconds, deduped, cached_engine = min(
        (time_cached() for _ in range(REPEATS)), key=lambda run: run[0])

    # The dedup claim is only a win if it changes nothing.
    np.testing.assert_array_equal(deduped.aerial, reference.aerial)
    np.testing.assert_array_equal(deduped.resist, reference.resist)

    # Snapshot: the engine's stats object keeps counting through the warm
    # run below.
    stats = dataclasses.replace(cached_engine.tile_cache.stats)
    num_tiles = grid[0] * grid[1]
    hit_rate = stats.hit_rate
    speedup = uncached_seconds / cached_seconds

    # Second pass against the now-warm cache: nothing should be imaged.
    start = time.perf_counter()
    cached_engine.image_layout(layout, tile_px=TILE, guard_px=GUARD)
    warm_seconds = time.perf_counter() - start
    warm = cached_engine.tile_cache.stats
    warm_misses = warm.misses - stats.misses
    warm_hit_rate = (warm.served - stats.served) / num_tiles
    warm_share = warm_seconds / uncached_seconds

    lines = [
        f"tile-result cache dedup ({grid[0]}x{grid[1]} cell array, "
        f"{CELLS} unique {TILE} px cells, guard {GUARD} px)",
        f"  uncached (image every tile): {uncached_seconds:7.3f} s "
        f"({num_tiles} tiles imaged)",
        f"  cold cache                 : {cached_seconds:7.3f} s "
        f"({stats.misses} imaged, {stats.served} served, "
        f"{hit_rate * 100:.1f}% hit rate)",
        f"  warm cache                 : {warm_seconds:7.3f} s "
        f"({warm_misses} imaged, {warm_hit_rate * 100:.1f}% hit rate, "
        f"{warm_share:.3f} of uncached)",
        f"  dedup speedup (uncached / cold cache): {speedup:.2f}x",
    ]
    record_output("tile_cache", "\n".join(lines))
    record_json("tile_cache", {
        "op": "tile_cache_dedup",
        "grid": list(grid),
        "tile_px": TILE,
        "guard_px": GUARD,
        "unique_cells": CELLS,
        "num_tiles": num_tiles,
        "uncached_seconds": uncached_seconds,
        "cached_seconds": cached_seconds,
        "warm_seconds": warm_seconds,
        "misses": stats.misses,
        "served": stats.served,
        "hit_rate": hit_rate,
        "warm_hit_rate": warm_hit_rate,
        "warm_share": warm_share,
        "dedup_speedup": speedup,
        "cpus": os.cpu_count(),
    })

    # Acceptance floors: the cell library is the only unique content, so the
    # cold run images exactly CELLS tiles, serves > 90 % of the layout from
    # the cache and beats uncached imaging by >= 3x; the warm run images
    # nothing at all.
    assert stats.misses == CELLS
    assert hit_rate > 0.9
    assert speedup >= 3.0, (
        f"dedup gained only {speedup:.2f}x (floor 3x): "
        f"uncached {uncached_seconds:.3f} s vs cached {cached_seconds:.3f} s")
    assert warm_misses == 0
    assert warm_hit_rate == 1.0
