"""Executors: the engine memo and campaign policy behind every production call.

:class:`ShardedExecutor` images tile batches and layouts for a small
:class:`EngineSpec` (optics config + source + pupil + resolved compute
policy) per call rather than an engine: it memoises the engines it builds
per fingerprint and holds what a spec does not carry — the kernel-cache
directory and the tile cache.  With a ``cache_dir`` (default
``REPRO_KERNEL_CACHE_DIR``) the decomposed kernel banks persist as ``.npz``,
so a later run — a resumed campaign, a restarted service — loads them
instead of re-running the TCC accumulation + eigendecomposition.

Every call goes straight to the memoised engine.  Tiles run in parallel in
one place only, the batched core (:mod:`repro.engine.batched`), which
spends the spec's worker budget (``compute.fft_workers``) on the tiles of
each call.  The executor used to cut batches into shards on a pool of its
own as well; measured on 2 CPUs, one unsharded call matched or beat that
cut at every batch size (``docs/architecture.md``, "Worker threads"), so
the cut is gone and the class keeps its name, its ``num_workers=`` keyword
and :data:`DEFAULT_SCHEDULER` only for the end-to-end benchmark that still
uses them.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..backend import ComputeConfig, get_backend
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

#: No option selects anything with it; ``bench/run.py`` imports the name to
#: record it in each result's provenance.
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


class ShardedExecutor:
    """Image tile batches and layouts for an :class:`EngineSpec`.

    Every call goes to the spec's memoised engine, whose batched core
    spends the spec's worker budget on the tiles; the executor adds the
    policy a spec does not carry (the kernel-cache directory and the tile
    cache).

    Parameters
    ----------
    num_workers:
        Accepted and ignored: the threads a call may occupy are the spec's
        ``compute.fft_workers``.  The keyword stays because the end-to-end
        benchmark (``bench/``) still passes it.
    cache_dir:
        Disk directory the decomposed kernel banks persist in across runs;
        defaults to ``REPRO_KERNEL_CACHE_DIR``.  ``None`` keeps them in the
        process-wide in-memory cache only.
    tile_cache:
        A live :class:`TileResultCache` for :meth:`image_layout`, winning
        over ``compute``.
    compute:
        A :class:`~repro.backend.ComputeConfig` whose ``tile_cache`` (``True``
        / ``False`` / ``None`` — ``None`` consults ``REPRO_TILE_CACHE`` /
        ``REPRO_TILE_CACHE_DIR``) switches the process-wide tile cache; its
        FFT / precision fields belong to the :class:`EngineSpec` each call
        carries and are ignored here.
    """

    def __init__(self, num_workers: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 tile_cache: Optional[TileResultCache] = None,
                 compute: Optional[ComputeConfig] = None):
        self.cache_dir = cache_dir if cache_dir is not None else \
            os.environ.get("REPRO_KERNEL_CACHE_DIR")
        tile_cache = live_object("tile_cache", tile_cache, TileResultCache)
        compute = compute if compute is not None else ComputeConfig()
        self.tile_cache = tile_cache if tile_cache is not None \
            else resolve_tile_cache(compute.tile_cache)
        self._engines = LockedLRU(ENGINE_MEMO_LIMIT)
        self._local_cache = (KernelBankCache(cache_dir=self.cache_dir)
                             if self.cache_dir else None)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop the memoised engines (idempotent; a later call rebuilds
        them, from the disk cache when there is a ``cache_dir``)."""
        self._engines.clear()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
    # imaging
    # ------------------------------------------------------------------ #
    def aerial_batch(self, spec: EngineSpec, masks: np.ndarray,
                     output_shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """Aerial images of ``(B, H, W)`` masks through the spec's engine."""
        return self.warm(spec).aerial_batch(masks, output_shape=output_shape)

    def resist_batch(self, spec: EngineSpec, masks: np.ndarray) -> np.ndarray:
        """Binary resist images of a mask batch."""
        return self.warm(spec).resist_batch(masks)

    def image_layout(self, spec: EngineSpec, layout,
                     tiling: Optional[TilingSpec] = None,
                     tile_px: Optional[int] = None,
                     guard_px: Optional[int] = None,
                     out_dir: Optional[str] = None,
                     batch_tiles: Optional[int] = None) -> LayoutImage:
        """:meth:`ExecutionEngine.image_layout` of the spec's engine, argument
        for argument, through the executor's tile cache."""
        return image_layout_through(
            self.warm(spec), layout, tiling, tile_px, guard_px, out_dir,
            batch_tiles, tile_cache=self.tile_cache)
