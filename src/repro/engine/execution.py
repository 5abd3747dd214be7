"""The unified forward-lithography execution engine.

``ExecutionEngine`` is the one object the rest of the codebase images masks
through.  It owns a fixed frequency-domain kernel bank — golden SOCS kernels,
learned Nitho kernels, anything of shape ``(r, n, m)`` — and provides:

* batched imaging (:meth:`aerial_batch`; a single tile — :meth:`aerial`,
  :meth:`resist` — is a batch of one, and ``resist_model.develop`` turns any
  aerial batch into resist) through the one SOCS forward in
  :mod:`repro.engine.batched`,
* large-layout imaging (:meth:`image_layout`) via the guard-banded tiling
  pipeline in :mod:`repro.engine.tiling`, lifting the historical
  "exactly one tile" restriction,
* construction from an optics description (:meth:`for_optics`) through the
  process-wide kernel-bank cache in :mod:`repro.engine.cache`, so the thin
  SVD of the lit shifted-pupil stack (~30 ms cold) for a given optics
  fingerprint runs at most once per process no matter how many simulators,
  experiments or benchmarks ask, and
* the compute policy of :mod:`repro.backend`, carried by one
  ``compute=ComputeConfig(...)``: ``fft_workers`` sets the thread budget
  the numpy backend spends on tile shares, ``precision`` selects the
  float64 / float32 dtype pair the whole pipeline runs at (the cache's
  float64 bank is cast once, at construction, so dtypes never mix).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import numpy as np

from ..backend import (
    ComputeConfig,
    FFTBackend,
    autotune_precision,
    get_backend,
    is_auto_precision,
    resolve_precision,
)
from ..layout.reader import ArrayLayoutReader
from ..optics.resist import ConstantThresholdResist
from ..optics.simulator import default_illumination
from .batched import (
    FORWARD_REVISION,
    batched_aerial_from_kernels,
    effective_chunk_tiles,
    image_tiles,
    share_threads,
)
from .cache import KernelBankCache, default_kernel_cache
from .streaming import stream_image_layout
from .tile_cache import (
    TileCacheContext,
    TileCacheStats,
    TileResultCache,
    resolve_tile_cache,
)
from .tiling import TilingSpec, default_guard_px


#: Bytes a tile-cache stream batch's intermediates may take, were they all
#: alive at once (256 MiB: 2**24 complex128 samples) — the layout pipeline's
#: RAM bound per batch (:meth:`ExecutionEngine.stream_batch_tiles`).
STREAM_BATCH_BYTES = 2 ** 28


@dataclass(frozen=True)
class LayoutImage:
    """Result of imaging a full layout: stitched aerial + resist + provenance.

    ``aerial`` / ``resist`` are plain arrays, or ``numpy.memmap`` views when
    the layout was imaged into an ``out_dir`` (recorded here; ``None``
    otherwise).  ``tile_stats`` counts this call's tiles through the tile
    cache (``None`` when the engine has none).
    """

    aerial: np.ndarray
    resist: np.ndarray
    tiling: TilingSpec
    num_tiles: int
    out_dir: Optional[str] = None
    tile_stats: Optional[TileCacheStats] = None

    @property
    def shape(self) -> Tuple[int, int]:
        return self.aerial.shape


def live_object(keyword: str, value, kind: type):
    """``value`` when it is ``None`` or a ``kind`` instance; a name raises."""
    if value is not None and not isinstance(value, kind):
        raise TypeError(
            f"{keyword}= takes a {kind.__name__} instance, got {value!r}; "
            f"names and switches go in compute=ComputeConfig(...)")
    return value


class ExecutionEngine:
    """Batched, cached, tiling-aware forward lithography from a kernel bank.

    Policy *names* arrive in one ``compute=ComputeConfig(...)``; the
    ``fft_backend`` / ``tile_cache`` keywords take the live objects a
    serialisable config cannot hold (and win over its fields).
    """

    def __init__(self, kernels: np.ndarray, resist_threshold: float = 0.225,
                 tile_size_px: Optional[int] = None,
                 fft_backend: Optional[FFTBackend] = None,
                 tile_cache: Optional[TileResultCache] = None,
                 compute: Optional[ComputeConfig] = None):
        kernels = np.asarray(kernels)
        if kernels.ndim != 3:
            raise ValueError("kernels must have shape (r, n, m)")
        fft_backend = live_object("fft_backend", fft_backend, FFTBackend)
        tile_cache = live_object("tile_cache", tile_cache, TileResultCache)
        compute = compute if compute is not None else ComputeConfig()
        #: Precision policy of every array this engine touches (masks cast on
        #: the way in, kernels cast once here, intensities come back real).
        #: The deferred ``"auto"`` spelling is resolved right here, against
        #: this bank: float32 exactly when the bank's SOCS truncation error
        #: already dominates the float32 dtype error (measured once).
        self.precision = autotune_precision(kernels) \
            if is_auto_precision(compute.precision) \
            else resolve_precision(compute.precision)
        if fft_backend is not None:
            if compute.fft_workers is not None:
                raise ValueError(
                    "fft_workers cannot be applied to an already-constructed "
                    "FFTBackend instance; set its workers instead")
            self.backend = fft_backend
        else:
            self.backend = get_backend(compute.fft_workers)
        self.kernels = kernels.astype(self.precision.complex_dtype)
        self.resist_model = ConstantThresholdResist(resist_threshold)
        #: Tile size the kernel bank was calibrated for.  The kernels sample
        #: frequencies at spacing ``1 / (tile_size_px * pixel_size)``, so
        #: imaging masks of a different size re-interprets them on a
        #: different physical grid: :meth:`aerial_batch` rejects any other
        #: mask size (``None`` = uncalibrated bank, any size accepted).
        self.tile_size_px = tile_size_px
        #: Content-addressed tile-result cache (None = caching off): the
        #: injected instance, else the process-wide one when
        #: ``compute.tile_cache`` is True (see resolve_tile_cache).
        self.tile_cache = tile_cache if tile_cache is not None \
            else resolve_tile_cache(compute.tile_cache)
        self._kernel_fingerprint: Optional[str] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def for_optics(cls, config, source=None, pupil=None,
                   cache: Optional[KernelBankCache] = None,
                   **kwargs) -> "ExecutionEngine":
        """Engine for an optics description, kernels served by ``cache``.

        The one place an optics description becomes a kernel bank — the
        golden simulator, :class:`~repro.engine.sharded.EngineSpec` and every
        direct caller arrive here.  ``source`` / ``pupil`` default to
        :func:`~repro.optics.simulator.default_illumination`, ``cache`` to
        the process-wide one.  The cache serves its one float64 bank whatever
        the precision; every other keyword (``compute``, ``fft_backend``,
        ``tile_cache``, ...) goes to the constructor, which resolves the
        precision against that bank and casts it once.
        """
        source, pupil = default_illumination(config, source, pupil)
        # "cache or default" would discard an *empty* injected cache, because
        # KernelBankCache defines __len__ and a fresh cache is falsy.
        cache = default_kernel_cache() if cache is None else cache
        bank = cache.get_kernels(config, source, pupil)
        kwargs.setdefault("resist_threshold", config.resist_threshold)
        kwargs.setdefault("tile_size_px", config.tile_size_px)
        return cls(bank.kernels, **kwargs)

    # ------------------------------------------------------------------ #
    # kernel bank
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        return self.kernels.shape[0]

    @property
    def kernel_shape(self) -> Tuple[int, int]:
        return self.kernels.shape[1], self.kernels.shape[2]

    def truncate(self, order: int) -> "ExecutionEngine":
        """New engine keeping the bank's first ``order`` rows (transforms):
        a learned bank's strongest kernels.  A packed golden bank's rows are
        kernel pairs; cut it with ``max_socs_order`` instead (``ValueError``
        unless ``0 < order <= self.order``)."""
        if order <= 0:
            raise ValueError("order must be positive")
        if order > self.order:
            raise ValueError(
                f"cannot truncate to {order} kernels: engine only holds {self.order}")
        return type(self)(self.kernels[:order],
                          resist_threshold=self.resist_model.threshold,
                          tile_size_px=self.tile_size_px,
                          fft_backend=self.backend,
                          tile_cache=self.tile_cache,
                          compute=ComputeConfig(
                              precision=self.precision.name))

    def kernel_energy(self) -> np.ndarray:
        """Per-row energy ``sum |K_i|^2``: a SOCS eigenvalue per eigenkernel,
        the sum of the two eigenvalues a packed golden row holds."""
        return np.sum(np.abs(self.kernels) ** 2, axis=(1, 2))

    def kernel_fingerprint(self) -> str:
        """Content hash of the kernel bank, computed once.

        Identifies everything about *this engine's kernels* that determines
        an aerial tile: the bank's values (which already encode optics,
        truncation order and precision — the bank is cast at construction)
        and the forward imaging with it (``batched.FORWARD_REVISION``).
        Block size and the resist threshold are excluded: the former never
        changes results (pinned), the latter only affects development.  This
        is the kernel component of the tile-result cache key, so two engines
        sharing a bank share cached tiles.
        """
        if self._kernel_fingerprint is None:
            bank = np.ascontiguousarray(self.kernels)
            digest = hashlib.sha1()
            digest.update(f"{bank.shape}|{bank.dtype.str}|".encode("utf-8"))
            digest.update(bank.tobytes())
            # Old and new rounding must never be stitched into one image.
            digest.update(f"|{FORWARD_REVISION}".encode("ascii"))
            self._kernel_fingerprint = digest.hexdigest()
        return self._kernel_fingerprint

    def tile_cache_context(self, tiling: TilingSpec) -> TileCacheContext:
        """The non-content components of this engine's tile-cache key."""
        return TileCacheContext(kernel_fingerprint=self.kernel_fingerprint(),
                                backend=self.backend.name,
                                precision=self.precision.name,
                                tile_px=tiling.tile_px,
                                guard_px=tiling.guard_px)

    # ------------------------------------------------------------------ #
    # imaging
    # ------------------------------------------------------------------ #
    def aerial_batch(self, masks: np.ndarray) -> np.ndarray:
        """Aerial images of a mask batch ``(B, H, W)`` in one vectorised pass.

        A bank with a calibrated :attr:`tile_size_px` images masks of
        exactly that size; any other raises ``ValueError`` (the kernels would
        land on a different frequency grid — a silently wrong image).
        """
        masks = np.stack([self.precision.as_real(mask) for mask in masks], axis=0) \
            if isinstance(masks, (list, tuple)) else self.precision.as_real(masks)
        self._check_tile_shape(masks.shape[-2:])
        return batched_aerial_from_kernels(
            masks, self.kernels, backend=self.backend,
            precision=self.precision)

    def _check_tile_shape(self, shape: Tuple[int, ...]) -> None:
        tile = self.tile_size_px
        if tile is not None and tuple(shape) != (tile, tile):
            raise ValueError(
                f"mask shape {tuple(shape)} does not match the "
                f"{tile} px tile this kernel bank was calibrated for")

    def aerial(self, mask: np.ndarray) -> np.ndarray:
        """Aerial image of one mask tile: a batch of one."""
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise ValueError("mask must be a 2-D image")
        return self.aerial_batch(mask[None])[0]

    def resist(self, mask: np.ndarray) -> np.ndarray:
        return self.resist_model.develop(self.aerial(mask))

    # ------------------------------------------------------------------ #
    # large layouts
    # ------------------------------------------------------------------ #
    def resolve_tiling(self, tiling: Optional[TilingSpec],
                        tile_px: Optional[int],
                        guard_px: Optional[int]) -> TilingSpec:
        if tiling is not None:
            return tiling
        if tile_px is None:
            tile_px = self.tile_size_px
        if tile_px is None:
            raise ValueError(
                "engine has no calibrated tile size; pass tile_px or tiling "
                "matching the size the kernel bank was computed for")
        if guard_px is None:
            guard_px = default_guard_px(self.kernel_shape, tile_px)
        return TilingSpec(tile_px=int(tile_px), guard_px=int(guard_px))

    def stream_batch_tiles(self, tiling: TilingSpec) -> int:
        """Default tiles per stream batch of a layout run — the stream
        layer's RAM bound: as many tiles as keep a batch's intermediates,
        were they all alive at once, within :data:`STREAM_BATCH_BYTES`.
        """
        return effective_chunk_tiles(
            np.iinfo(np.int32).max, self.kernels.shape,
            tiling.tile_px, tiling.tile_px, STREAM_BATCH_BYTES,
            self.precision.complex_itemsize)

    def image_layout(self, layout,
                     tiling: Optional[TilingSpec] = None,
                     tile_px: Optional[int] = None,
                     guard_px: Optional[int] = None,
                     out_dir: Optional[str] = None) -> LayoutImage:
        """Image an arbitrary ``(H, W)`` layout by guard-banded tiling.

        Every layout runs through the one pipeline of
        :mod:`repro.engine.streaming`: O(threads x block) RAM beside the
        output without a tile cache, however large the layout; with one,
        batches of :meth:`stream_batch_tiles` tiles.  The result depends on
        neither, bit for bit.

        Parameters
        ----------
        layout:
            A dense ``(H, W)`` raster, a ``numpy.memmap``, or a windowed
            :class:`repro.layout.LayoutReader` (anything with a
            ``read_window`` method).  A reader's tiles are rasterised on
            demand — the dense raster never exists — and produce bit-for-bit
            the dense-array result.
        tiling:
            Explicit tile geometry; overrides ``tile_px`` / ``guard_px``.
        tile_px:
            Full tile size; defaults to the engine's calibrated
            :attr:`tile_size_px`.  Tiles must match the size the kernel bank
            was built for — the kernels sample the tile's frequency lattice
            — so an engine without a known tile size requires an explicit
            value.  Layouts smaller than one tile are handled by the
            extractor (beyond-boundary content is an empty reticle).
        guard_px:
            Guard band per side; defaults to :func:`default_guard_px`
            (one kernel window), the scale over which partially coherent
            cross-talk decays.
        out_dir:
            Write the stitched aerial / resist into ``.npy`` memmaps under
            this directory (see the :mod:`repro.engine.streaming` docstring
            for the layout), so even the output needn't fit in RAM.
        """
        if not hasattr(layout, "read_window"):
            # The one place a dense raster becomes a reader; it is cast up
            # front (a reader's tiles are cast as they are read).
            layout = ArrayLayoutReader(self.precision.as_real(layout))
        tiling = self.resolve_tiling(tiling, tile_px, guard_px)
        tile_shape = (tiling.tile_px, tiling.tile_px)
        self._check_tile_shape(tile_shape)
        batch_tiles = self.stream_batch_tiles(tiling)
        image = partial(image_tiles, kernels=self.kernels, xp=self.backend,
                        precision=self.precision, tile_shape=tile_shape,
                        guard=tiling.guard_px)
        aerial, resist, num_tiles, tile_stats = stream_image_layout(
            layout, tiling, image, self.resist_model.develop,
            self.precision.real_dtype, batch_tiles,
            partial(share_threads, self.backend), out_dir=out_dir,
            meta={"backend": self.backend.name,
                  "precision": self.precision.name},
            tile_cache=self.tile_cache,
            cache_context=self.tile_cache_context(tiling)
            if self.tile_cache is not None else None)
        return LayoutImage(aerial=aerial, resist=resist, tiling=tiling,
                           num_tiles=num_tiles, out_dir=out_dir,
                           tile_stats=tile_stats)
