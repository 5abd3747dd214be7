"""Micro-benchmark — the process-window sweep's kernel-bank economy.

An ``F x D`` focus-exposure campaign builds exactly ``F`` kernel banks (dose
never touches the optics), and the banks persist in the cache dir so a later
run loads ``.npz`` files (~2 ms) instead of re-running the TCC accumulation +
eigendecomposition (~0.6 s at 256 px).  Asserted here, with the warm-up and
campaign times printed for the record.
"""

import os
import time

import numpy as np

from repro.engine import ShardedExecutor
from repro.engine import cache
from repro.masks.generators import ISPDMetalGenerator
from repro.optics import OpticsConfig
from repro.optics.source import AnnularSource
from repro.sweep import FocusExposureGrid, ProcessWindowSweep

TILE = 256
PIXEL_NM = 4.0
LAYOUT_SHAPE = (1024, 768)  # 24 guard-banded tiles per focus setting
GRID = FocusExposureGrid(focus_values_nm=(-60.0, 0.0, 60.0),
                         dose_values=(0.9, 1.0, 1.1))


def _layout(seed: int = 3) -> np.ndarray:
    generator = ISPDMetalGenerator(TILE, PIXEL_NM, seed=seed)
    rows, cols = LAYOUT_SHAPE[0] // TILE, LAYOUT_SHAPE[1] // TILE
    tiles = np.asarray(generator.generate(rows * cols), dtype=float)
    canvas = tiles.reshape(rows, cols, TILE, TILE).transpose(0, 2, 1, 3)
    return canvas.reshape(LAYOUT_SHAPE)


def _spy(monkeypatch, name):
    """Count the calls of ``repro.engine.cache.<name>``."""
    calls = []
    plain = getattr(cache, name)
    monkeypatch.setattr(cache, name,
                        lambda *args, **kw: calls.append(1) or plain(*args, **kw))
    return calls


def test_sweep_kernel_bank_economy(tmp_path, monkeypatch):
    config = OpticsConfig(tile_size_px=TILE, pixel_size_nm=PIXEL_NM, max_socs_order=24)
    source = AnnularSource(0.5, 0.8)
    cache_dir = str(tmp_path / "kernel-cache")
    decompositions = _spy(monkeypatch, "socs_kernels")
    disk_loads = _spy(monkeypatch, "_bank_from_npz")

    with ShardedExecutor(cache_dir=cache_dir) as executor:
        sweep = ProcessWindowSweep(config, source=source, executor=executor)
        # Banks are decomposed once per focus and persisted.
        warm_start = time.perf_counter()
        for focus in GRID.focus_values_nm:
            sweep.engine_for_focus(focus)
        warm_s = time.perf_counter() - warm_start
        outcome = sweep.run(_layout(), grid=GRID)

    # F x D conditions -> exactly F kernel banks on disk (the TCC-reuse claim).
    banks = [name for name in os.listdir(cache_dir) if name.endswith(".npz")]
    assert len(banks) == len(GRID.focus_values_nm)
    assert len(decompositions) == len(banks)
    assert outcome.computed_conditions == len(GRID)

    # A later run over the same cache dir loads every bank from disk.
    with ShardedExecutor(cache_dir=cache_dir) as later:
        for focus in GRID.focus_values_nm:
            ProcessWindowSweep(config, source=source,
                               executor=later).engine_for_focus(focus)
    assert len(decompositions) == len(banks)  # none more
    assert len(disk_loads) == len(banks)

    print(f"\nprocess-window sweep: {LAYOUT_SHAPE[0]}x{LAYOUT_SHAPE[1]} px "
          f"layout, {len(GRID)} conditions, {outcome.num_tiles} tiles/focus: "
          f"{len(banks)} kernel banks (warm {warm_s:.2f} s), campaign "
          f"{outcome.elapsed_s:.2f} s")
