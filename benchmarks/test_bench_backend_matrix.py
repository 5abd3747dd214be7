"""Micro-benchmark — the compute-backend layer's backend x precision matrix.

Measures the tier-1 imaging hot path (a 1024x768 px layout through the
batched, guard-banded tiling engine) under every FFT backend available on
this machine crossed with float64 / float32, against the seed-equivalent
baseline (numpy backend, complex128, full-spectrum transforms — the
pre-backend-layer pipeline).  Two artifacts are recorded:

* ``backend_matrix.txt`` — the human-readable table, and
* ``backend_matrix.json`` — machine-readable records (op, shape, backend,
  precision, seconds, speedup) so the speedup is *recorded, not claimed*
  and diffable across commits.

The acceptance floor mirrors the PR 2 convention: on a multi-core runner the
rfft2 + float32 path must beat the seed complex128 path by a deliberately
loose >= 1.5x (the regression signal lives in the recorded JSON, not the
assertion); every combination must also agree with the float64 numpy
reference within its documented tolerance on the shared fixture.
"""

import os
import time

import numpy as np

from repro.analysis.throughput import measure_backend_matrix
from repro.backend import (
    FLOAT32,
    ComputeConfig,
    available_backends,
    get_backend,
)
from repro.engine import ExecutionEngine, KernelBankCache, available_workers
from repro.masks.generators import ISPDMetalGenerator
from repro.optics import OpticsConfig
from repro.optics.source import AnnularSource

TILE = 256
PIXEL_NM = 4.0
LAYOUT_SHAPE = (1024, 768)
CONFIG = OpticsConfig(tile_size_px=TILE, pixel_size_nm=PIXEL_NM, max_socs_order=24)
SOURCE = AnnularSource(0.5, 0.8)
NUMPY = ComputeConfig(fft_backend="numpy")


def _layout(seed: int = 3) -> np.ndarray:
    generator = ISPDMetalGenerator(TILE, PIXEL_NM, seed=seed)
    rows, cols = LAYOUT_SHAPE[0] // TILE, LAYOUT_SHAPE[1] // TILE
    tiles = np.asarray(generator.generate(rows * cols), dtype=float)
    canvas = tiles.reshape(rows, cols, TILE, TILE).transpose(0, 2, 1, 3)
    return canvas.reshape(LAYOUT_SHAPE)


def _seed_band_limited_aerial(masks: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """The literal pre-PR-3 batched hot path, preserved for baseline timing.

    np.fft complex128 throughout, full-size ``fftshift`` in the spectrum
    crop and per-chunk ``ifftshift`` after every centred embed — exactly the
    PR 1/2 `_band_limited_chunk` pipeline, so ``speedup_vs_seed`` measures
    the whole backend layer (rfft2 + fused embeds + backend), not just part
    of it.
    """
    from repro.optics.grid import crop_centre, embed_centre

    masks = np.asarray(masks, dtype=float)
    kernels = np.asarray(kernels, dtype=np.complex128)
    n, m = kernels.shape[-2:]
    out_h, out_w = masks.shape[-2:]
    small_h, small_w = 2 * n, 2 * m
    spectrum = np.fft.fftshift(np.fft.fft2(masks, norm="ortho"), axes=(-2, -1))
    spectra = crop_centre(spectrum, n, m)
    products = kernels[None, :, :, :] * spectra[:, None, :, :]
    embedded = embed_centre(products, small_h, small_w)
    fields = np.fft.ifft2(np.fft.ifftshift(embedded, axes=(-2, -1)), norm="ortho")
    small = np.sum(np.abs(fields) ** 2, axis=1)
    spec = np.fft.fftshift(np.fft.fft2(small, norm="forward"), axes=(-2, -1))
    padded = embed_centre(spec, out_h, out_w)
    upsampled = np.real(np.fft.ifft2(np.fft.ifftshift(padded, axes=(-2, -1)),
                                     norm="forward"))
    return upsampled * (small_h * small_w) / float(out_h * out_w)


def test_backend_precision_matrix(record_output, record_json):
    cache = KernelBankCache()
    engine = ExecutionEngine.for_optics(CONFIG, source=SOURCE, cache=cache,
                                        compute=NUMPY)
    kernels = engine.kernels
    layout = _layout()
    from repro.engine.tiling import TilingSpec, extract_tiles

    tiling = TilingSpec(tile_px=TILE, guard_px=40)
    tiles, _ = extract_tiles(layout, tiling)

    matrix, baseline = measure_backend_matrix(
        kernels, tiles, PIXEL_NM,
        baseline_run=lambda batch: _seed_band_limited_aerial(batch, kernels),
        baseline_name="seed (np.fft complex128, full spectrum, shifted embeds)")

    # Accuracy on the shared fixture: every combination within its
    # documented tolerance of the numpy/float64 reference — which itself
    # must match the literal seed pipeline to rounding.
    reference = ExecutionEngine.for_optics(
        CONFIG, source=SOURCE, cache=cache, compute=NUMPY).aerial_batch(tiles)
    seed_reference = _seed_band_limited_aerial(tiles, kernels)
    assert float(np.abs(seed_reference - reference).max() /
                 reference.max()) < 1e-12
    scale = float(reference.max())
    accuracy = {}
    for (backend_name, precision), entry in matrix.items():
        imaged = ExecutionEngine.for_optics(
            CONFIG, source=SOURCE, cache=cache,
            compute=ComputeConfig(fft_backend=backend_name,
                                  precision=precision)).aerial_batch(tiles)
        rel = float(np.abs(np.asarray(imaged, dtype=float) - reference).max() / scale)
        accuracy[(backend_name, precision)] = rel
        tolerance = FLOAT32.aerial_rtol if precision == "float32" else 1e-12
        assert rel < tolerance, (
            f"{backend_name}/{precision} deviates {rel:.3g} from the float64 "
            f"reference (documented tolerance {tolerance:g})")

    records = [entry.to_record("image_layout_tiles", LAYOUT_SHAPE)
               for entry in matrix.values()]
    records.append({
        "op": "image_layout_tiles", "shape": list(LAYOUT_SHAPE),
        "backend": "numpy", "precision": "complex128-full-spectrum-seed",
        "seconds": baseline.seconds_per_tile,
        "um2_per_second": baseline.um2_per_second, "speedup": 1.0,
    })
    record_json("backend_matrix", {
        "op": "image_layout_tiles",
        "layout_shape": list(LAYOUT_SHAPE),
        "tile_px": TILE,
        "num_tiles": int(tiles.shape[0]),
        "cpus": available_workers(),
        "records": records,
    })

    lines = [
        f"backend x precision matrix: {LAYOUT_SHAPE[0]}x{LAYOUT_SHAPE[1]} px "
        f"layout as {tiles.shape[0]} guard-banded {TILE}px tiles, "
        f"{available_workers()} CPU(s)",
        f"  seed baseline  : {baseline.seconds_per_tile * 1e3:8.2f} ms/tile "
        f"(literal pre-PR3 path: np.fft complex128, shifted embeds)",
    ]
    for (backend_name, precision), entry in sorted(matrix.items()):
        lines.append(
            f"  {backend_name:>6}/{precision:<8}: "
            f"{entry.result.seconds_per_tile * 1e3:8.2f} ms/tile  "
            f"{entry.speedup_vs_seed:5.2f}x vs seed  "
            f"(max rel err {accuracy[(backend_name, precision)]:.2e})")
    report = "\n".join(lines)
    print("\n" + report)
    record_output("backend_matrix", report)

    # The headline claim: half-spectrum + single precision beats the seed
    # path.  Asserted loosely (PR 2 convention) and only where the hardware
    # can show it; exact numbers live in the recorded artifacts.
    fast_backend = "scipy" if ("scipy", "float32") in matrix else "numpy"
    fast = matrix[(fast_backend, "float32")].speedup_vs_seed
    if available_workers() >= 2:
        assert fast >= 1.5, (
            f"rfft2 + float32 ({fast_backend}) only {fast:.2f}x vs the seed "
            f"complex128 path")
    else:
        assert fast > 0


def test_env_selected_backend(record_output, record_json):
    """Smoke the environment-driven selection path end to end.

    CI runs this once per backend available on the runner (pinned via
    ``REPRO_FFT_BACKEND``), recording one JSON per backend so the artifacts
    show each engine actually imaged the fixture.
    """
    backend = get_backend()  # REPRO_FFT_BACKEND / auto
    assert backend.name in available_backends()
    engine = ExecutionEngine.for_optics(CONFIG, source=SOURCE,
                                        cache=KernelBankCache())
    assert engine.backend.name == backend.name

    layout = _layout(seed=5)[:512, :512]
    start = time.perf_counter()
    result = engine.image_layout(layout, guard_px=40)
    elapsed = time.perf_counter() - start
    assert result.aerial.shape == layout.shape

    payload = {
        "op": "image_layout",
        "shape": list(layout.shape),
        "backend": backend.name,
        "precision": engine.precision.name,
        "seconds": elapsed,
        "num_tiles": result.num_tiles,
        "env": os.environ.get("REPRO_FFT_BACKEND", ""),
    }
    record_json(f"backend_env_{backend.name}", payload)
    record_output(f"backend_env_{backend.name}",
                  f"{backend.name} backend imaged {layout.shape[0]}x"
                  f"{layout.shape[1]} px in {elapsed:.2f} s "
                  f"({result.num_tiles} tiles)")
