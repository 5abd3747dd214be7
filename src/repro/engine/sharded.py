"""Sharding of tile batches across worker threads.

The batched core (:mod:`repro.engine.batched`) images one batch, spending
the backend's worker budget on its blocks; a qualification campaign
(hundreds of (focus, dose) conditions over thousands of tiles) shares one
pool of threads between campaigns.  :class:`ShardedExecutor` cuts a tile
batch into contiguous shards and images them on the threads of a
:class:`WorkerPool`, each shard writing its rows of the one result and taking
its part of that worker budget, so the sharded output is **bit-for-bit
identical** to the serial output (per-tile FFT work is independent of how
the batch is chunked — pinned by
``tests/test_engine.py::TestBatchedEquivalence``).

Threads, not processes: every shard images through the *same*
:class:`~repro.engine.execution.ExecutionEngine` object, so the kernel bank
is built (and, on a device backend, uploaded) once, nothing is pickled, and
the numpy / scipy (pocketfft) transforms — where the time goes — release the
GIL.  Measured on 2 CPUs (``docs/architecture.md``, "Worker threads"); not
measured beyond 2 CPUs or on the pyfftw / cupy backends.

An executor takes a small :class:`EngineSpec` (optics config + source +
pupil + resolved compute policy) per call rather than an engine, and memoises
the engines it builds per fingerprint.  With a ``cache_dir`` (default
``REPRO_KERNEL_CACHE_DIR``) the decomposed kernel banks persist as ``.npz``,
so a later run — a resumed campaign, a restarted service — loads them
instead of re-running the TCC accumulation + eigendecomposition.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..backend import ComputeConfig, get_backend, resolve_precision
from ..backend.fft import available_cpus
from ..optics.pupil import Pupil
from ..optics.simulator import OpticsConfig, default_illumination
from ..optics.source import Source
from .batched import FORWARD_REVISION
from .cache import (
    KernelBankCache,
    LockedLRU,
    kernel_cache_for,
    optics_fingerprint,
)
from .execution import (
    ExecutionEngine,
    LayoutImage,
    image_layout_through,
    live_object,
)
from .tile_cache import TileResultCache, resolve_tile_cache
from .tiling import TilingSpec

#: What runs a multi-shard batch.  No option selects it any more;
#: ``bench/run.py`` imports the name to record it in each result's provenance.
DEFAULT_SCHEDULER = "threads"


@dataclass(frozen=True)
class EngineSpec:
    """The recipe for an :class:`ExecutionEngine`: optics + compute policy.

    Holds the optics description rather than the kernel bank itself: the bank
    can be megabytes, while the spec is a few hundred bytes, hashes to a
    fingerprint (the engine-memo key and the campaign-store identity) and
    resolves its bank through the shared (disk-backed) kernel cache.

    ``compute`` is normalised to concrete names at construction and always
    reads back resolved: ``fft_backend`` the registered backend's name
    (``None`` resolves the environment), ``precision`` ``"float64"`` or
    ``"float32"`` (``"auto"`` autotunes against the cached float64 master
    bank right here), ``fft_workers`` as given (wall-clock only: pocketfft is
    deterministic across worker counts) and ``tile_cache`` ``None`` — that
    one is the executor's policy, not part of the imaging recipe.  So
    whoever builds the engine later — this run or the one that resumes its
    campaign store — reconstructs the exact same backend + precision, and
    the fingerprint names what actually ran.
    """

    config: OpticsConfig
    source: Optional[Source] = None
    pupil: Optional[Pupil] = None
    cache_dir: Optional[str] = None
    compute: Optional[ComputeConfig] = None

    def __post_init__(self):
        # Normalised HERE, at construction: "auto" / env-var / None must not
        # be re-interpreted when the engine is built (a resumed run's
        # environment could differ).
        compute = self.compute if self.compute is not None else ComputeConfig()
        precision = kernel_cache_for(self.cache_dir).bank_precision(
            self.config, *self.resolved_optics(), compute.precision)
        object.__setattr__(self, "compute", ComputeConfig(
            fft_backend=get_backend(compute.fft_backend).name,
            fft_workers=compute.fft_workers,
            precision=precision.name))

    def resolved_optics(self) -> Tuple[Source, Pupil]:
        """Source / pupil with the golden defaults filled in."""
        return default_illumination(self.config, self.source, self.pupil)

    def fingerprint(self) -> str:
        """Cache key: optics fingerprint + the engine options that change output."""
        base = optics_fingerprint(self.config, *self.resolved_optics())
        compute = self.compute
        # A store written under another FORWARD_REVISION is refused, not resumed.
        # ("chunk=268435456": a deleted knob's value, kept so no identity moves.)
        return (
            f"{base}|order={getattr(self.config, 'max_socs_order', None)}"
            f"|{FORWARD_REVISION}|chunk=268435456"
            f"|backend={compute.fft_backend}|workers={compute.fft_workers}"
            f"|prec={compute.precision}")

    def with_focus(self, focus_nm: float) -> "EngineSpec":
        """The same imaging system refocused: config + pupil defocus replaced."""
        source, pupil = self.resolved_optics()
        return dataclasses.replace(
            self,
            config=dataclasses.replace(self.config, defocus_nm=float(focus_nm)),
            source=source,
            pupil=dataclasses.replace(pupil, defocus_nm=float(focus_nm)))

    def build(self, cache: Optional[KernelBankCache] = None) -> ExecutionEngine:
        """Build the engine, serving kernels through ``cache`` (or the spec's dir)."""
        return ExecutionEngine.for_optics(
            self.config, self.source, self.pupil,
            cache=kernel_cache_for(self.cache_dir) if cache is None else cache,
            compute=self.compute)


#: Most engines an executor's memo retains (LRU).  A campaign visits one
#: fingerprint per focus setting; with a disk-backed cache an evicted engine
#: rebuilds from ``.npz`` in milliseconds, whereas an unbounded memo would
#: keep every decomposed bank of a hundreds-of-conditions sweep resident
#: (GBs).
ENGINE_MEMO_LIMIT = 8


def available_workers() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    return available_cpus()


class WorkerPool:
    """The worker threads tile shards run on, with lifetime counters.

    A thin bookkeeping layer over a lazily created
    :class:`~concurrent.futures.ThreadPoolExecutor`.  An executor owns a
    private pool; the campaign service hands one pool to every campaign's
    executor, so the worker budget caps how many shards run at once *across
    all campaigns* and the counters (``/healthz``) make the sharing
    observable.
    """

    def __init__(self, num_workers: Optional[int] = None):
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = int(num_workers) if num_workers is not None \
            else max(1, available_workers())
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Lifetime counters (monotonic; cancelled futures count as
        #: completed once they settle).
        self.submitted = 0
        self.completed = 0

    def submit(self, fn: Callable, *args) -> Future:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-worker")
            future = self._executor.submit(fn, *args)
            self.submitted += 1
        future.add_done_callback(self._settled)
        return future

    def _settled(self, future: Future) -> None:
        with self._lock:
            self.completed += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"num_workers": self.num_workers,
                    "submitted": self.submitted,
                    "completed": self.completed}

    def shutdown(self, wait: bool = True) -> None:
        """Stop the threads; queued-but-unstarted shards are cancelled.  A
        later ``submit`` starts fresh ones."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)


class ShardedExecutor:
    """Image tile batches for an :class:`EngineSpec`, sharded over threads.

    Parameters
    ----------
    num_workers:
        How many shards of a batch run at once — the size of the executor's
        own :class:`WorkerPool`, and how many contiguous shards a batch is
        cut into; defaults to the available CPU count.  ``<= 1`` images
        every batch inline on the calling thread (no thread is ever started).
    cache_dir:
        Disk directory the decomposed kernel banks persist in across runs;
        defaults to ``REPRO_KERNEL_CACHE_DIR``.  ``None`` keeps them in the
        process-wide in-memory cache only.
    tile_cache:
        A live :class:`TileResultCache` for :meth:`image_layout`, winning
        over ``compute``.  Deduplication happens on the calling thread,
        before any shard is cut: workers image only first-occurrence unique
        tiles and never see the cache, so the sharded == serial bit-for-bit
        guarantee is untouched.
    compute:
        A :class:`~repro.backend.ComputeConfig` whose ``tile_cache`` (``True``
        / ``False`` / ``None`` — ``None`` consults ``REPRO_TILE_CACHE`` /
        ``REPRO_TILE_CACHE_DIR``) switches the process-wide tile cache; its
        FFT / precision fields belong to the :class:`EngineSpec` each call
        carries and are ignored here.
    pool:
        A :class:`WorkerPool` shared with other executors (the campaign
        service's); the executor then never shuts it down.  ``None`` gives
        the executor a private pool of ``num_workers`` threads.
    """

    def __init__(self, num_workers: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 tile_cache: Optional[TileResultCache] = None,
                 compute: Optional[ComputeConfig] = None,
                 pool: Optional[WorkerPool] = None):
        if num_workers is not None and num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        self.num_workers = available_workers() if num_workers is None else int(num_workers)
        self.cache_dir = cache_dir if cache_dir is not None else \
            os.environ.get("REPRO_KERNEL_CACHE_DIR")
        tile_cache = live_object("tile_cache", tile_cache, TileResultCache)
        compute = compute if compute is not None else ComputeConfig()
        self.tile_cache = tile_cache if tile_cache is not None \
            else resolve_tile_cache(compute.tile_cache)
        self._owns_pool = pool is None
        self.pool = pool if pool is not None \
            else WorkerPool(max(1, self.num_workers))
        self._engines = LockedLRU(ENGINE_MEMO_LIMIT)
        self._local_cache = (KernelBankCache(cache_dir=self.cache_dir)
                             if self.cache_dir else None)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the executor's own worker threads (idempotent; new ones
        start on demand).  A shared pool is its owner's to stop."""
        if self._owns_pool:
            self.pool.shutdown()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # best-effort: don't leak worker threads
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter-shutdown races
            pass

    # ------------------------------------------------------------------ #
    # engines
    # ------------------------------------------------------------------ #
    def warm(self, spec: EngineSpec) -> ExecutionEngine:
        """The engine for ``spec``, built once per fingerprint and memoised.

        With a ``cache_dir`` the build also writes the decomposed kernel
        bank as ``.npz``, so the next run's first lookup is a disk load
        rather than a fresh TCC accumulation + eigendecomposition.
        """
        def build() -> ExecutionEngine:
            # The executor's disk-backed cache when it has a cache_dir,
            # else whatever the spec names (its own dir or the default).
            engine = spec.build(cache=self._local_cache)
            if self._local_cache is not None:
                self._local_cache.trim_memory()  # bank persisted; engine owns a copy
            return engine

        return self._engines.get_or_build(spec.fingerprint(), build)

    # ------------------------------------------------------------------ #
    # sharded imaging
    # ------------------------------------------------------------------ #
    def _shard_slices(self, batch: int) -> List[slice]:
        """Contiguous, deterministic shard slices, one per worker (each
        walks its share in cache-sized blocks by itself)."""
        if self.num_workers <= 1:
            return [slice(0, batch)]
        size = max(1, -(-batch // self.num_workers))
        return [slice(start, min(start + size, batch))
                for start in range(0, batch, size)]

    def aerial_batch(self, spec: EngineSpec, masks: np.ndarray,
                     output_shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """Aerial images of ``(B, H, W)`` masks, sharded across the workers.

        One shard (one worker, or a batch of at most one tile) is imaged
        inline; several are imaged on the pool's threads, each writing its
        rows of the one result, so the output is bit-for-bit the serial
        output regardless of which thread finished first.  The shards
        divide the backend's worker budget between them (an imaging call
        spends its own on blocks): cutting a batch never asks the host for
        more threads than imaging it whole.  A shard that raises cancels
        the shards that have not started and the exception propagates once
        the running ones have settled.
        """
        # Cast once, on the calling thread: every shard is then a view.
        masks = resolve_precision(spec.compute.precision).as_real(masks)
        if masks.ndim != 3:
            raise ValueError("masks must have shape (B, H, W)")
        engine = self.warm(spec)
        shards = self._shard_slices(masks.shape[0])
        if len(shards) <= 1:
            return engine.aerial_batch(masks, output_shape=output_shape)
        result = np.empty(
            (masks.shape[0],) + tuple(output_shape or masks.shape[-2:]),
            dtype=engine.precision.real_dtype)
        workers = engine.backend.workers or 1
        if workers > 1:
            # Same bank, same bits; the spec's own fingerprint is untouched.
            engine = self.warm(dataclasses.replace(
                spec, compute=dataclasses.replace(
                    spec.compute,
                    fft_workers=max(1, workers // len(shards)))))
        futures: List[Future] = []
        try:
            for piece in shards:
                futures.append(self.pool.submit(
                    engine.aerial_batch, masks[piece], output_shape,
                    result[piece]))
            for future in futures:
                future.result()
            return result
        finally:
            for future in futures:
                if not future.cancel():
                    future.exception()  # running or done: wait, don't raise

    def resist_batch(self, spec: EngineSpec, masks: np.ndarray) -> np.ndarray:
        """Binary resist images of a sharded mask batch."""
        aerial = self.aerial_batch(spec, masks)
        return self.warm(spec).resist_model.develop(aerial)

    # ------------------------------------------------------------------ #
    # sharded layouts
    # ------------------------------------------------------------------ #
    def image_layout(self, spec: EngineSpec, layout,
                     tiling: Optional[TilingSpec] = None,
                     tile_px: Optional[int] = None,
                     guard_px: Optional[int] = None,
                     out_dir: Optional[str] = None,
                     batch_tiles: Optional[int] = None) -> LayoutImage:
        """Guard-banded tiling of an ``(H, W)`` layout with sharded tile imaging.

        :meth:`ExecutionEngine.image_layout`, argument for argument, with
        only the per-tile FFT work distributed: split, tile cache and stitch
        happen on the calling thread (cheap memory moves; deduplicating
        before any shard is cut keeps repeated cells from being imaged
        twice).  ``batch_tiles`` defaults to one
        :meth:`ExecutionEngine.stream_batch_tiles` *per worker*, so every
        worker has shards whatever the layout size.
        """
        return image_layout_through(
            self.warm(spec), layout, tiling, tile_px, guard_px, out_dir,
            batch_tiles, tile_cache=self.tile_cache,
            image_batch=lambda tiles: self.aerial_batch(spec, tiles),
            num_workers=self.num_workers)
