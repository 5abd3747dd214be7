"""Micro-benchmark — bounded-batch layout imaging vs the unbatched reference.

The claim of :mod:`repro.engine.streaming` is *memory*, not speed: the plain
reference (``tests/reference.py`` — what the in-memory path used to be)
materialises the full guard-banded tile stack plus the full aerial tile
stack (O(layout area)), while the pipeline run in bounded batches holds one
tile batch at a time (O(tile-batch)).  This benchmark measures both **peak
RSS in fresh subprocesses** (`measure_peak_memory`; the OS high-water mark
is per-process-lifetime, so each candidate gets its own interpreter) on a
layout at least 4x the engine's chunk budget, and records

* the peak RAM of each *above* a no-imaging baseline subprocess that
  builds the same engine and layout (isolating what imaging itself
  allocates),
* ``peak_memory_ratio`` — reference / bounded-batch peak — asserted ``>= 4``
  and gated in CI by ``benchmarks/compare_trajectory.py``, and
* wall-clock of both (batching should cost little: same FFT work,
  incremental writes).

Results land in ``benchmarks/results/streaming.{txt,json}`` (the JSON keeps
its ``in_memory`` / ``streaming`` keys so the trajectory stays comparable).
"""

import os
import sys

import numpy as np

from repro.analysis.throughput import measure_peak_memory
from repro.engine import (
    ExecutionEngine,
    KernelBankCache,
    effective_chunk_tiles,
)
from repro.optics import OpticsConfig
from repro.optics.source import AnnularSource

# The unbatched side is the test suite's oracle, not product code.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from reference import reference_image_layout

TILE = 128
PIXEL_NM = 4.0
GUARD = 32
ORDER = 12
#: Deliberately small stream-batch budget (4 MiB, passed as an explicit
#: ``batch_tiles=`` of that many bytes of spectra) so the layout is >= 4x
#: the budget without needing a multi-GiB canvas in CI.
CHUNK_BYTES = 2 ** 22
#: (H, W) per preset; the tiny layout is 16 MiB of float64 = 4x the budget,
#: and its full tile stack is ~64 MiB — what the in-memory path pays twice.
LAYOUT_SHAPES = {"tiny": (2048, 1024), "small": (4096, 2048),
                 "default": (4096, 4096)}


def _config() -> OpticsConfig:
    return OpticsConfig(tile_size_px=TILE, pixel_size_nm=PIXEL_NM,
                        max_socs_order=ORDER)


def _build_engine(cache_dir: str) -> ExecutionEngine:
    return ExecutionEngine.for_optics(
        _config(), source=AnnularSource(0.5, 0.8),
        cache=KernelBankCache(cache_dir=cache_dir))


def _batch_tiles(engine: ExecutionEngine) -> int:
    return effective_chunk_tiles(np.iinfo(np.int32).max, engine.kernels.shape,
                                 TILE, TILE, CHUNK_BYTES,
                                 engine.precision.complex_itemsize)


def _build_layout(shape) -> np.ndarray:
    """Deterministic dense line/space pattern (no RNG, no generator cost)."""
    height, width = shape
    rows = (np.arange(height) // 8) % 2
    cols = (np.arange(width) // 12) % 2
    return (rows[:, None] ^ cols[None, :]).astype(float)


# Top-level so measure_peak_memory can ship them to fresh subprocesses.
def _run_baseline(cache_dir: str, shape) -> None:
    """Everything but the imaging: engine (disk-cached bank) + layout."""
    _build_engine(cache_dir)
    _build_layout(shape)


def _run_in_memory(cache_dir: str, shape) -> None:
    reference_image_layout(_build_engine(cache_dir), _build_layout(shape),
                           guard_px=GUARD)


def _run_streaming(cache_dir: str, shape) -> None:
    engine = _build_engine(cache_dir)
    tiling = engine.resolve_tiling(None, None, GUARD)
    engine.image_layout(_build_layout(shape), tiling=tiling,
                        batch_tiles=_batch_tiles(engine))


def test_streaming_peak_memory(preset, record_output, record_json, tmp_path):
    shape = LAYOUT_SHAPES.get(preset, LAYOUT_SHAPES["default"])
    cache_dir = str(tmp_path / "bank-cache")
    engine = _build_engine(cache_dir)  # warms the disk cache for the children

    # Correctness stays pinned at bench scale too (cheap, small slice).
    small = _build_layout((4 * TILE, 2 * TILE))
    reference = reference_image_layout(engine, small, guard_px=GUARD)
    streamed = engine.image_layout(small, guard_px=GUARD, batch_tiles=2)
    np.testing.assert_array_equal(streamed.aerial, reference.aerial)

    baseline = measure_peak_memory(_run_baseline, cache_dir, shape)
    in_memory = measure_peak_memory(_run_in_memory, cache_dir, shape)
    streaming = measure_peak_memory(_run_streaming, cache_dir, shape)

    layout_bytes = shape[0] * shape[1] * 8
    in_memory_delta = max(in_memory.peak_bytes - baseline.peak_bytes, 1)
    streaming_delta = max(streaming.peak_bytes - baseline.peak_bytes, 1)
    ratio = in_memory_delta / streaming_delta

    lines = [
        f"bounded-batch image_layout vs the unbatched reference "
        f"({shape[0]}x{shape[1]} px, {TILE} px tiles, guard {GUARD} px, "
        f"chunk budget {CHUNK_BYTES / 2**20:.0f} MiB, "
        f"layout {layout_bytes / CHUNK_BYTES:.1f}x the budget)",
        f"  baseline  (no imaging): peak {baseline.peak_mib:8.1f} MiB",
        f"  reference (unbatched) : peak {in_memory.peak_mib:8.1f} MiB "
        f"(+{in_memory_delta / 2**20:7.1f} MiB)  {in_memory.elapsed_s:6.2f} s",
        f"  bounded batches       : peak {streaming.peak_mib:8.1f} MiB "
        f"(+{streaming_delta / 2**20:7.1f} MiB)  {streaming.elapsed_s:6.2f} s",
        f"  peak-memory ratio (reference / bounded): {ratio:.2f}x",
        f"  measured in fresh subprocesses: "
        f"{in_memory.in_subprocess and streaming.in_subprocess}",
    ]
    record_output("streaming", "\n".join(lines))
    record_json("streaming", {
        "op": "streaming_image_layout",
        "shape": list(shape),
        "tile_px": TILE,
        "guard_px": GUARD,
        "chunk_budget_bytes": CHUNK_BYTES,
        "layout_bytes_over_chunk_budget": layout_bytes / CHUNK_BYTES,
        "baseline_peak_bytes": baseline.peak_bytes,
        "in_memory": {"peak_bytes": in_memory.peak_bytes,
                      "delta_bytes": in_memory_delta,
                      "elapsed_s": in_memory.elapsed_s},
        "streaming": {"peak_bytes": streaming.peak_bytes,
                      "delta_bytes": streaming_delta,
                      "elapsed_s": streaming.elapsed_s},
        "peak_memory_ratio": ratio,
        "in_subprocess": bool(in_memory.in_subprocess
                              and streaming.in_subprocess),
        "cpus": os.cpu_count(),
    })

    # The acceptance floor: bounded batches image a layout >= 4x the chunk
    # budget in >= 4x less imaging RAM than the unbatched reference.  Only meaningful when the subprocess
    # measurement worked (the in-process fallback measures lifetime
    # high-water, which the first-run path would dominate).
    assert layout_bytes >= 4 * CHUNK_BYTES
    if in_memory.in_subprocess and streaming.in_subprocess:
        assert ratio >= 4.0, (
            f"bounded batches saved only {ratio:.2f}x peak imaging RAM "
            f"(floor 4x): reference +{in_memory_delta / 2**20:.1f} MiB vs "
            f"bounded +{streaming_delta / 2**20:.1f} MiB")
