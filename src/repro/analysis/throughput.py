"""Throughput measurement (Fig. 5): processed mask area per second for each engine.

The paper reports µm²/s for TEMPO, DOINN, Nitho and the reference rigorous
simulator.  Here every engine exposes a callable that images one mask tile;
we time repeated calls and convert to area throughput using the tile's
physical extent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class ThroughputResult:
    """Throughput of one engine."""

    name: str
    tiles_per_second: float
    um2_per_second: float
    seconds_per_tile: float


def tile_area_um2(tile_size_px: int, pixel_size_nm: float) -> float:
    """Physical area of one tile in µm²."""
    if tile_size_px <= 0 or pixel_size_nm <= 0:
        raise ValueError("tile size and pixel size must be positive")
    extent_um = tile_size_px * pixel_size_nm / 1000.0
    return extent_um * extent_um


def measure_throughput(name: str, run_tile: Callable[[np.ndarray], np.ndarray],
                       masks: Sequence[np.ndarray], pixel_size_nm: float,
                       repeats: int = 1, warmup: int = 1) -> ThroughputResult:
    """Time ``run_tile`` over ``masks`` and convert to µm²/s.

    Parameters
    ----------
    run_tile:
        Callable imaging a single mask tile (e.g. ``model.predict_aerial``).
    repeats:
        Number of passes over the mask list included in the timing.
    warmup:
        Untimed warm-up calls (first-call caches, e.g. kernel export).
    """
    masks = [np.asarray(mask, dtype=float) for mask in masks]
    if not masks:
        raise ValueError("need at least one mask to measure throughput")
    for index in range(min(warmup, len(masks))):
        run_tile(masks[index])

    start = time.perf_counter()
    tiles = 0
    for _ in range(max(repeats, 1)):
        for mask in masks:
            run_tile(mask)
            tiles += 1
    elapsed = time.perf_counter() - start
    elapsed = max(elapsed, 1e-9)

    area = tile_area_um2(masks[0].shape[-1], pixel_size_nm)
    tiles_per_second = tiles / elapsed
    return ThroughputResult(name=name,
                            tiles_per_second=tiles_per_second,
                            um2_per_second=tiles_per_second * area,
                            seconds_per_tile=elapsed / tiles)


def measure_batched_throughput(name: str,
                               run_batch: Callable[[np.ndarray], np.ndarray],
                               masks: Sequence[np.ndarray], pixel_size_nm: float,
                               batch_size: int = 16, repeats: int = 1,
                               warmup: int = 1) -> ThroughputResult:
    """Time a batched engine (``(B, H, W) -> (B, H, W)``) and convert to µm²/s.

    The mask list is stacked into ``batch_size`` chunks outside the timed
    region; ``run_batch`` is called once per chunk, so the measurement
    captures the vectorised hot path of
    :class:`~repro.engine.execution.ExecutionEngine` rather than per-tile
    Python dispatch.
    """
    if len(masks) == 0:
        raise ValueError("need a non-empty (B, H, W) mask set")
    stacked = np.stack([np.asarray(mask, dtype=float) for mask in masks], axis=0)
    if stacked.ndim != 3:
        raise ValueError("need a non-empty (B, H, W) mask set")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    batches = [stacked[start:start + batch_size]
               for start in range(0, len(stacked), batch_size)]
    for _ in range(max(warmup, 0)):
        run_batch(batches[0])

    start_time = time.perf_counter()
    tiles = 0
    for _ in range(max(repeats, 1)):
        for batch in batches:
            run_batch(batch)
            tiles += len(batch)
    elapsed = max(time.perf_counter() - start_time, 1e-9)

    area = tile_area_um2(stacked.shape[-1], pixel_size_nm)
    tiles_per_second = tiles / elapsed
    return ThroughputResult(name=name,
                            tiles_per_second=tiles_per_second,
                            um2_per_second=tiles_per_second * area,
                            seconds_per_tile=elapsed / tiles)


def compare_throughput(engines: Dict[str, Callable[[np.ndarray], np.ndarray]],
                       masks: Sequence[np.ndarray], pixel_size_nm: float,
                       repeats: int = 1,
                       batched_engines: Optional[Dict[str, Callable[[np.ndarray],
                                                                    np.ndarray]]] = None,
                       batch_size: int = 16) -> Dict[str, ThroughputResult]:
    """Measure several engines on the same mask set (the Fig. 5 bar chart).

    ``engines`` map names to per-tile callables; ``batched_engines`` map
    names to whole-batch callables measured via
    :func:`measure_batched_throughput`.
    """
    results = {name: measure_throughput(name, engine, masks, pixel_size_nm,
                                        repeats=repeats)
               for name, engine in engines.items()}
    for name, engine in (batched_engines or {}).items():
        results[name] = measure_batched_throughput(
            name, engine, masks, pixel_size_nm,
            batch_size=batch_size, repeats=repeats)
    return results


def speedup(results: Dict[str, ThroughputResult], fast: str, slow: str) -> float:
    """Throughput ratio ``fast / slow`` (e.g. Nitho vs. the rigorous simulator)."""
    if fast not in results or slow not in results:
        raise KeyError("both engines must be present in the results")
    denominator = results[slow].um2_per_second
    if denominator <= 0:
        return float("inf")
    return results[fast].um2_per_second / denominator
