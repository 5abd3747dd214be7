"""Unified forward-lithography execution layer.

Everything that images masks — the golden simulator, the kernel-bank engine,
Nitho's fast-lithography export, the baselines' batch inference and the
throughput benchmarks — runs through this package:

* :mod:`repro.engine.batched` — the vectorised batched SOCS core (one
  broadcast FFT pipeline per cache-sized block of a batch, band-limited
  fast evaluation; the one place tiles run in parallel: a call spends the
  backend's worker budget on shares of its tiles),
* :mod:`repro.engine.cache` — the process-wide kernel-bank cache keyed by an
  optics fingerprint (one float64 bank per optics and order, built at most
  once per process from a thin SVD of the lit shifted-pupil stack, ~20 ms
  cold; no TCC is formed) and the ``.npz`` disk tier it
  shares with the tile cache,
* :mod:`repro.engine.tiling` — guard-banded splitting / stitching of
  arbitrary ``(H, W)`` layouts,
* :mod:`repro.engine.execution` — the :class:`ExecutionEngine` facade tying
  the three together,
* :mod:`repro.engine.streaming` — the one layout-imaging pipeline every
  ``image_layout`` runs through: tile batches cut on demand, the tile-cache
  stage, batched imaging, incremental stitch into (optionally memmapped)
  outputs — O(tile-batch) RAM for every layout, bit-for-bit the same
  result whatever the batch size,
* :mod:`repro.engine.sharded` — :class:`EngineSpec` (the picklable recipe
  of an engine: optics, kernel-cache directory and compute policy) and
  :class:`ShardedExecutor`, a plain memo of one engine per spec fingerprint
  and tile-cache switch — each engine owns its own tile cache and
  precision, and
* :mod:`repro.engine.tile_cache` — the content-addressed tile-result cache
  (:class:`TileResultCache`): each *unique* guard-banded tile content is
  imaged once per (kernel bank, backend, precision, geometry) and every
  repeat — including all-zero tiles, served constant-time — is stitched
  from the cache, bit-for-bit the uncached result.

Every FFT and dtype decision is delegated to the compute-backend layer in
:mod:`repro.backend`: engines take one ``compute=ComputeConfig(...)`` of
policy names and default to the environment-selected backend
(``REPRO_FFT_BACKEND``, auto = multi-threaded scipy when importable) at
float64.  Layout input is a dense ``(H, W)`` raster or a windowed
:mod:`repro.layout` reader — readers are rasterised batch by batch, so the
dense raster never needs to exist.

Usage
-----
An engine wraps a frequency-domain kernel bank ``(r, n, m)`` — golden SOCS
kernels, learned kernels, anything — and images mask batches and layouts
through it:

>>> import numpy as np
>>> from repro.engine import ExecutionEngine, TilingSpec
>>> engine = ExecutionEngine(np.ones((2, 3, 3)), tile_size_px=16)
>>> engine.order, engine.kernel_shape
(2, (3, 3))
>>> engine.aerial_batch(np.zeros((4, 16, 16))).shape     # batched imaging
(4, 16, 16)
>>> image = engine.image_layout(np.zeros((24, 40)), tile_px=16, guard_px=4)
>>> image.aerial.shape, image.num_tiles                  # guard-banded tiling
((24, 40), 15)
>>> TilingSpec(tile_px=16, guard_px=4).core_px
8

Production entry points build engines from an optics description instead —
``ExecutionEngine.for_optics(config)`` — so kernel banks flow through the
process-wide cache, and campaigns go through :class:`ShardedExecutor` /
:mod:`repro.sweep`.
"""

from .batched import (
    batch_chunk_size,
    batched_aerial_from_kernels,
    effective_chunk_tiles,
)
from .cache import (
    CacheStats,
    KernelBankCache,
    default_kernel_cache,
    optics_fingerprint,
)
from .execution import ExecutionEngine, LayoutImage
from .sharded import (
    DEFAULT_SCHEDULER,
    EngineSpec,
    ShardedExecutor,
    available_workers,
)
from .streaming import (
    iter_tile_batches,
    open_layout_dir,
    stream_image_layout,
)
from .tile_cache import (
    ZERO_TILE_DIGEST,
    TileCacheContext,
    TileCacheStats,
    TileResultCache,
    configure_default_tile_cache,
    default_tile_cache,
    resolve_tile_cache,
    tile_digest,
)
from .tiling import (
    TilePlacement,
    TilingSpec,
    default_guard_px,
    extract_tile_batch,
    extract_tiles,
    plan_tiles,
    stitch_into,
    stitch_tiles,
)

__all__ = [
    "batch_chunk_size",
    "batched_aerial_from_kernels",
    "effective_chunk_tiles",
    "CacheStats", "KernelBankCache", "default_kernel_cache",
    "optics_fingerprint",
    "ExecutionEngine", "LayoutImage",
    "DEFAULT_SCHEDULER", "EngineSpec", "ShardedExecutor", "available_workers",
    "iter_tile_batches", "open_layout_dir", "stream_image_layout",
    "ZERO_TILE_DIGEST", "TileCacheContext", "TileCacheStats",
    "TileResultCache", "configure_default_tile_cache", "default_tile_cache",
    "resolve_tile_cache", "tile_digest",
    "TilingSpec", "TilePlacement", "default_guard_px",
    "plan_tiles", "extract_tiles", "extract_tile_batch",
    "stitch_into", "stitch_tiles",
]
