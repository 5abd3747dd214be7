"""Executors: the engine memo behind every production call.

:class:`ShardedExecutor` images tile batches and layouts for a small
:class:`EngineSpec` (optics config + source + pupil + kernel-cache directory
+ compute policy) per call rather than an engine: it is a bounded memo of
``spec.build()``, keyed by the spec's fingerprint, thread budget and
tile-cache switch, and every call forwards to the memoised engine.  Each engine owns what
decides its output — its kernel bank, precision and tile cache — so the
executor keeps no second copy of any of them.  With a ``cache_dir`` on the
spec (a sweep stamps the executor's, which defaults to
``REPRO_KERNEL_CACHE_DIR``) the kernel banks persist as ``.npz``, so a
later run — a resumed campaign, a restarted service — loads them instead of
re-running the thin SVD of the lit shifted-pupil stack (~30 ms cold).

Tiles run in parallel in one place only, the batched core
(:mod:`repro.engine.batched`), which spends the spec's worker budget
(``compute.fft_workers``) on the tiles of each call.  The executor used to
cut batches into shards on a pool of its own as well; measured on 2 CPUs,
one unsharded call matched or beat that cut at every batch size
(``docs/architecture.md``, "Worker threads"), so the cut is gone and the
class keeps its name, its ``num_workers=`` keyword and
:data:`DEFAULT_SCHEDULER` only for the end-to-end benchmark that still uses
them.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..backend import ComputeConfig, is_auto_precision, resolve_precision
from ..backend.fft import available_cpus
from ..optics.pupil import Pupil
from ..optics.simulator import OpticsConfig, default_illumination
from ..optics.source import Source
from .batched import FORWARD_REVISION
from ..utils.lru import LockedLRU
from .cache import (
    KernelBankCache,
    kernel_cache_for,
    optics_fingerprint,
)
from .execution import ExecutionEngine, LayoutImage
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

    ``compute`` is normalised at construction and always reads back
    resolved: ``precision`` ``"float64"`` or ``"float32"`` (``"auto"`` is
    read off an engine built right here, which autotunes against the
    float64 bank in ``cache_dir``).  So whoever builds the engine later —
    this run or the one that resumes its campaign store — reconstructs the
    exact same precision, and the fingerprint names what actually ran.
    ``fft_workers`` and ``tile_cache`` are kept as given and left out of the
    fingerprint: no thread budget changes a bit, and cached tiles are
    bit-for-bit the uncached ones, so the engine applies both as its own
    policy.
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
        precision = self.build().precision \
            if is_auto_precision(compute.precision) \
            else resolve_precision(compute.precision)
        object.__setattr__(self, "compute", ComputeConfig(
            fft_workers=compute.fft_workers,
            precision=precision.name,
            tile_cache=compute.tile_cache))

    def resolved_optics(self) -> Tuple[Source, Pupil]:
        """Source / pupil with the golden defaults filled in."""
        return default_illumination(self.config, self.source, self.pupil)

    def fingerprint(self) -> str:
        """Cache key: optics fingerprint + the engine options that change output."""
        base = optics_fingerprint(self.config, *self.resolved_optics())
        # A store written under another FORWARD_REVISION is refused, not resumed.
        return (
            f"{base}|order={getattr(self.config, 'max_socs_order', None)}"
            f"|{FORWARD_REVISION}|prec={self.compute.precision}")

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

    A bounded memo of ``spec.build()`` keyed by ``(spec.fingerprint(),
    spec.compute.fft_workers, spec.compute.tile_cache)``: every call goes to the spec's engine, which
    owns its kernel bank, precision and tile cache, and whose batched core
    spends the spec's worker budget on the tiles.

    Parameters
    ----------
    num_workers:
        Accepted and ignored: the threads a call may occupy are the spec's
        ``compute.fft_workers``.  The keyword stays because the end-to-end
        benchmark (``bench/``) still passes it.
    cache_dir:
        The kernel-bank directory a :class:`~repro.sweep.ProcessWindowSweep`
        stamps on the specs it derives (the spec, not the executor, names
        the directory its engine loads from); defaults to
        ``REPRO_KERNEL_CACHE_DIR``.
    """

    def __init__(self, num_workers: Optional[int] = None,
                 cache_dir: Optional[str] = None):
        self.cache_dir = cache_dir if cache_dir is not None else \
            os.environ.get("REPRO_KERNEL_CACHE_DIR")
        self._engines = LockedLRU(ENGINE_MEMO_LIMIT)

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
        """The engine for ``spec``, built once per fingerprint, thread budget
        and tile-cache switch, and memoised.

        With a ``cache_dir`` on the spec the build goes through a throwaway
        disk-backed cache: it writes the kernel bank as ``.npz`` (so the
        next run's first lookup is a disk load rather than a fresh thin SVD
        of the lit shifted-pupil stack, ~30 ms cold), and the bank then
        lives only in the memoised engine.
        """
        return self._engines.get_or_build(
            (spec.fingerprint(), spec.compute.fft_workers,
             spec.compute.tile_cache), spec.build)

    # ------------------------------------------------------------------ #
    # imaging
    # ------------------------------------------------------------------ #
    def aerial_batch(self, spec: EngineSpec, masks: np.ndarray) -> np.ndarray:
        """Aerial images of ``(B, H, W)`` masks through the spec's engine."""
        return self.warm(spec).aerial_batch(masks)

    def image_layout(self, spec: EngineSpec, layout,
                     tiling: Optional[TilingSpec] = None,
                     tile_px: Optional[int] = None,
                     guard_px: Optional[int] = None,
                     out_dir: Optional[str] = None) -> LayoutImage:
        """:meth:`ExecutionEngine.image_layout` of the spec's engine, argument
        for argument."""
        return self.warm(spec).image_layout(layout, tiling, tile_px,
                                            guard_px, out_dir)
