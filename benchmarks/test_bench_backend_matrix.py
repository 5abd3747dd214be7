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
import pytest

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


def test_fakegpu_residency_transfers(record_output, record_json):
    """Transfer accounting of the device-resident path (fakegpu module).

    The fakegpu module counts every host<->device crossing, so this cell
    records the residency contract as a *gated* trajectory metric:
    ``transfers_per_chunk`` must stay at 2.0 (one mask upload + one aerial
    download per chunk; the kernel bank is excluded — it uploads once per
    fingerprint, also recorded).  Any growth means a host detour crept back
    into the batched hot loop, and the perf gate fails the run.
    """
    from repro.engine.batched import (
        RESIDENT_BLOCK_BYTES,
        effective_chunk_tiles,
    )
    from repro.engine.execution import _DEVICE_BANKS

    cache = KernelBankCache()
    module = get_backend("fakegpu")
    engine = ExecutionEngine.for_optics(CONFIG, source=SOURCE, cache=cache,
                                        fft_backend=module,
                                        compute=ComputeConfig(tile_cache=False))
    layout = _layout()
    from repro.engine.tiling import TilingSpec, extract_tiles

    tiling = TilingSpec(tile_px=TILE, guard_px=40)
    tiles, _ = extract_tiles(layout, tiling)

    chunk_tiles = effective_chunk_tiles(
        tiles.shape[0], engine.kernels.shape, TILE, TILE,
        RESIDENT_BLOCK_BYTES, engine.precision.complex_itemsize)
    num_chunks = -(-tiles.shape[0] // chunk_tiles)

    # Warm the device bank memo with a one-tile call, then measure: the
    # measured pass must contain ONLY per-chunk traffic.
    module.transfer_stats.reset()
    _DEVICE_BANKS.clear()
    engine.aerial_batch(tiles[:1])
    bank_uploads = module.transfer_stats.uploads - 1  # minus the one-tile chunk
    module.transfer_stats.reset()
    resident = engine.aerial_batch(tiles)
    stats = module.transfer_stats
    transfers_per_chunk = (stats.uploads + stats.downloads) / num_chunks

    # Contents must equal the numpy backend exactly — residency is pure
    # bookkeeping, never numerics.
    reference = ExecutionEngine.for_optics(
        CONFIG, source=SOURCE, cache=cache,
        compute=NUMPY).aerial_batch(tiles)
    np.testing.assert_array_equal(reference, resident)
    assert transfers_per_chunk == 2.0
    assert bank_uploads == 1

    record_json("backend_fakegpu", {
        "op": "aerial_batch_resident",
        "tile_px": TILE,
        "chunk_tiles": chunk_tiles,
        "transfers_per_chunk": transfers_per_chunk,
        "bank_uploads": bank_uploads,
        "upload_bytes": stats.upload_bytes,
        "download_bytes": stats.download_bytes,
    })
    report = (
        f"fakegpu residency: {tiles.shape[0]} tiles in {num_chunks} chunk(s) "
        f"of {chunk_tiles}\n"
        f"  chunk uploads {stats.uploads}, downloads {stats.downloads}, "
        f"kernel-bank uploads {bank_uploads} (once, at warmup)\n"
        f"  transfers/chunk {transfers_per_chunk:.1f} "
        f"(contract: 2.0 = one upload + one download)\n"
        f"  bytes up {stats.upload_bytes:,}  bytes down "
        f"{stats.download_bytes:,}")
    print("\n" + report)
    record_output("backend_fakegpu", report)


def test_pyfftw_plan_cache(record_output, record_json):
    """Warm-vs-cold plan-cache speedup of the pyFFTW backend (when installed).

    A fresh backend instance measures every FFTW plan on first use
    (``FFTW_MEASURE``); the second pass over the same tile batch hits the
    explicit (kind, shape, dtype) plan cache for every transform.  The
    recorded ``plan_cache_speedup`` rides the trajectory gate's ``_speedup``
    suffix, and the acceptance floor is a deliberately loose >= 1.2x.
    """
    pytest.importorskip("pyfftw")
    from repro.backend import register_pyfftw_backend
    from repro.backend.fft import _REGISTRY

    register_pyfftw_backend()
    backend = _REGISTRY["pyfftw"](None)  # fresh instance: a truly cold cache

    cache = KernelBankCache()
    engine = ExecutionEngine.for_optics(CONFIG, source=SOURCE, cache=cache,
                                        fft_backend=backend,
                                        compute=ComputeConfig(tile_cache=False))
    layout = _layout()
    from repro.engine.tiling import TilingSpec, extract_tiles

    tiling = TilingSpec(tile_px=TILE, guard_px=40)
    tiles, _ = extract_tiles(layout, tiling)

    start = time.perf_counter()
    cold_result = engine.aerial_batch(tiles)
    cold = time.perf_counter() - start
    misses = backend.plan_stats.misses
    assert misses > 0 and backend.plan_stats.hits >= 0

    start = time.perf_counter()
    warm_result = engine.aerial_batch(tiles)
    warm = time.perf_counter() - start
    assert backend.plan_stats.misses == misses, "warm pass re-planned"
    np.testing.assert_array_equal(cold_result, warm_result)

    reference = ExecutionEngine.for_optics(
        CONFIG, source=SOURCE, cache=cache,
        compute=NUMPY).aerial_batch(tiles)
    scale = float(reference.max())
    rel = float(np.abs(warm_result - reference).max() / scale)
    assert rel < 1e-12, f"pyfftw deviates {rel:.3g} from the numpy reference"

    speedup = cold / warm
    assert speedup >= 1.2, (
        f"warm plan cache only {speedup:.2f}x over cold (plans re-measured?)")

    record_json("backend_pyfftw", {
        "op": "aerial_batch",
        "tile_px": TILE,
        "num_tiles": int(tiles.shape[0]),
        "cold_seconds": cold,
        "warm_seconds": warm,
        "plan_cache_speedup": speedup,
        "plan_misses": misses,
        "plan_hits": backend.plan_stats.hits,
    })
    report = (
        f"pyfftw plan cache: cold {cold * 1e3:.1f} ms -> warm "
        f"{warm * 1e3:.1f} ms ({speedup:.2f}x), "
        f"{misses} plans measured, {backend.plan_stats.hits} hits, "
        f"max rel err vs numpy {rel:.2e}")
    print("\n" + report)
    record_output("backend_pyfftw", report)


def test_pyfftw_plans_are_per_thread():
    """Worker threads share one backend instance: a planned FFTW object owns
    its input / output buffers, so each thread must execute its own plan.
    Two threads x 200 same-shape transforms, every result equal to numpy's."""
    pytest.importorskip("pyfftw")
    import sys
    import threading

    from repro.backend import register_pyfftw_backend
    from repro.backend.fft import _REGISTRY

    register_pyfftw_backend()
    backend = _REGISTRY["pyfftw"](1)
    rng = np.random.default_rng(8)
    inputs = [rng.standard_normal((4, 64, 64)) for _ in range(2)]
    expected = [np.fft.rfft2(array) for array in inputs]
    wrong = []

    def transform(index):
        for _ in range(200):
            result = backend.rfft2(inputs[index])
            if not np.allclose(result, expected[index], rtol=1e-10,
                               atol=1e-10):
                wrong.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=transform, args=(index,))
                   for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert backend.plan_stats.misses == 2  # one plan per thread, planned once


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
    import time

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
