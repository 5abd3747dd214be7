"""The test-side oracle for layout imaging: the plainest possible path.

``image_layout`` has exactly one implementation (the batch-by-batch pipeline
in :mod:`repro.engine.streaming`), so a pin of the form "batched == unbatched"
or "cached == uncached" written against ``image_layout`` alone would compare
the pipeline with itself.  :func:`reference_image_layout` is what those pins
compare against instead: cut the full tile stack, image it with one
``aerial_batch`` call, stitch it, develop the whole raster at once — no
batching, no tile cache, no sharding, no incremental stitch.  It shares only
the leaf operations with the pipeline (``extract_tiles`` / ``stitch_tiles``,
pinned as split-inverse by ``tests/test_engine.py``).

The product's transforms are likewise one path — ``rfft2`` half spectra with
a Hermitian gather, shift-free embeds, half-spectrum upsampling — so
:func:`reference_mask_spectrum` and :func:`reference_aerial` spell the
textbook full-spectrum expressions of Algorithm 1 in plain ``numpy.fft``,
touching no compute backend at all.

The product also has exactly one SOCS forward
(``repro.engine.batched.batched_aerial_from_kernels``), which picks its
per-block body from array shapes alone; :class:`RecordingBackend` lets a test see
which one ran by the transform shapes it issued, and
:func:`band_limited_blocks` says how many tiles each of those transforms
should have carried.

Training and ILT differentiate through that forward's field expression as one
autograd node (``repro.nn.functional.socs_intensity``);
:func:`reference_socs_intensity` is the op-by-op chain it replaced, each op
with its own backward, kept as the node's oracle.

The product cuts a layout's stream batches by one rule,
``ExecutionEngine.stream_batch_tiles``; :func:`stream_batches` is how a test
makes it cut smaller ones, and :class:`RecordingTileCache` how it sees the
rows each batch hands the tile cache.

It lives under ``tests/`` on purpose: the product keeps one path.
"""

import contextlib
from unittest import mock

import numpy as np

from repro.backend import FFTBackend, get_backend, register_backend
from repro.backend.fft import _INSTANCES, _REGISTRY
from repro.engine import (
    LayoutImage,
    TileResultCache,
    batched,
    extract_tiles,
    stitch_tiles,
)
from repro.nn import functional as F
from repro.nn.tensor import as_tensor
from repro.optics.grid import crop_centre, embed_centre


def reference_mask_spectrum(mask, kernel_shape=None):
    """``crop_centre(fftshift(fft2(mask)))``: lines 6-7 of Algorithm 1."""
    spectrum = np.fft.fftshift(np.fft.fft2(mask, norm="ortho"), axes=(-2, -1))
    if kernel_shape is None:
        return spectrum
    return crop_centre(spectrum, kernel_shape[0], kernel_shape[1])


def reference_aerial(masks, kernels):
    """``sum_i |ifft2(K_i * F(M))|^2`` of a ``(B, H, W)`` batch at the masks'
    resolution: full complex spectra, centred embed, explicit ``ifftshift``."""
    out_h, out_w = masks.shape[-2:]
    spectra = reference_mask_spectrum(masks, kernels.shape[-2:])
    products = kernels[None, :, :, :] * spectra[:, None, :, :]
    embedded = np.fft.ifftshift(embed_centre(products, out_h, out_w),
                                axes=(-2, -1))
    return np.sum(np.abs(np.fft.ifft2(embedded, norm="ortho")) ** 2, axis=1)


def reference_socs_intensity(kernels, spectra, grid):
    """Eq. (4) on the autograd, op by op: ``mul -> embed -> ifftshift2 ->
    ifft2 -> abs2 -> sum`` of ``(r, n, m)`` kernels and ``(B, n, m)``
    spectra on a ``grid``.  The centred embed is ``pad2d`` then
    ``crop_center``, which keeps the DC sample (index ``size // 2``)
    aligned."""
    grid_h, grid_w = grid
    kernels, spectra = as_tensor(kernels), as_tensor(spectra)
    order, n, m = kernels.shape
    products = F.mul(F.reshape(kernels, (1, order, n, m)),
                     F.reshape(spectra, (spectra.shape[0], 1, n, m)))
    embedded = F.crop_center(F.pad2d(products, (grid_h, grid_w)),
                             grid_h, grid_w)
    return F.sum(F.abs2(F.ifft2(F.ifftshift2(embedded))), axis=1)


def band_limited_blocks(batch, kernel_shape, out_shape, itemsize=16):
    """Tiles per block, in order, of a host band-limited call of ``batch``
    tiles: as many as keep BOTH the ``(block, r, gh, gw)`` field stack and the
    ``(block, H, W)`` complex upsampling spectrum within
    ``batched.BLOCK_BYTES`` (read at call time, so a test may patch it)."""
    order, n, m = kernel_shape
    grid_h, grid_w = batched.band_limit_grid(n, m)
    per_tile = max(order * grid_h * grid_w, out_shape[0] * out_shape[1])
    block = max(1, min(batched.BLOCK_BYTES // (per_tile * itemsize), batch))
    return [min(block, batch - start) for start in range(0, batch, block)]


class RecordingBackend(FFTBackend):
    """Only ``name`` + the four transforms, forwarded to the ``inner`` backend
    (``None`` = the default one, built with ``workers``) — exactly what
    ``bench/probes.py::make_fft_probe`` subclasses — recording
    ``(method, shape)`` per call; ``irfft2`` records the shape it produces.
    It has no one-thread sibling, so the batched core runs it as one share.
    ``name`` defaults to the inner backend's; a registered instance passes
    its registry name, so an ``EngineSpec`` resolves back to it."""

    def __init__(self, inner=None, workers=None, name=None):
        self.inner = get_backend(inner, workers)
        self.name = name or self.inner.name
        self.calls = []

    def shapes(self, method):
        return [shape for name, shape in self.calls if name == method]

    def fft2(self, array, norm=None):
        self.calls.append(("fft2", tuple(array.shape)))
        return self.inner.fft2(array, norm=norm)

    def ifft2(self, array, norm=None):
        self.calls.append(("ifft2", tuple(array.shape)))
        return self.inner.ifft2(array, norm=norm)

    def rfft2(self, array, norm=None):
        self.calls.append(("rfft2", tuple(array.shape)))
        return self.inner.rfft2(array, norm=norm)

    def irfft2(self, array, s, norm=None):
        self.calls.append(("irfft2", tuple(array.shape[:-2]) + tuple(s)))
        return self.inner.irfft2(array, s=s, norm=norm)


#: The backend matrices' third cell, next to numpy and scipy: a
#: :class:`RecordingBackend` over the ``auto`` backend, selectable by this
#: name (``REPRO_FFT_BACKEND`` too) inside :func:`transforms_only_registered`.
TRANSFORMS_ONLY = "transforms-only"


@contextlib.contextmanager
def transforms_only_registered():
    """Register :data:`TRANSFORMS_ONLY` through ``register_backend`` for the
    ``with`` block; the registry holds ``numpy`` and ``scipy`` again after."""
    register_backend(TRANSFORMS_ONLY,
                     lambda workers: RecordingBackend("auto", workers,
                                                      name=TRANSFORMS_ONLY))
    try:
        yield
    finally:
        _REGISTRY.pop(TRANSFORMS_ONLY, None)
        _INSTANCES.clear()


def reference_image_layout(engine, layout, tiling=None, *, tile_px=None,
                           guard_px=None) -> LayoutImage:
    """``extract_tiles`` -> ``engine.aerial_batch`` -> ``stitch_tiles`` -> develop.

    ``layout`` is a dense ``(H, W)`` raster (materialise a reader first);
    the tile geometry resolves exactly as ``engine.image_layout`` resolves
    it.  For a sharded run pass the executor's warmed engine
    (``executor.warm(spec)``).
    """
    tiling = engine.resolve_tiling(tiling, tile_px, guard_px)
    layout = engine.precision.as_real(layout)
    tiles, placements = extract_tiles(layout, tiling)
    aerial = stitch_tiles(engine.aerial_batch(tiles), placements,
                          *layout.shape, tiling)
    return LayoutImage(aerial=aerial,
                       resist=engine.resist_model.develop(aerial),
                       tiling=tiling, num_tiles=len(placements))


def stream_batches(target, batch_tiles):
    """Context manager: ``image_layout`` cuts stream batches of
    ``batch_tiles`` tiles.  Patches ``stream_batch_tiles`` on ``target`` —
    one engine, or ``ExecutionEngine`` itself for the engines an executor
    builds; ``None`` keeps the default rule."""
    if batch_tiles is None:
        return contextlib.nullcontext()
    return mock.patch.object(target, "stream_batch_tiles",
                             lambda *args: batch_tiles)


class RecordingTileCache(TileResultCache):
    """A tile cache that copies out every row of every batch it is handed —
    rows the pipeline already read and rows it reads only on access."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def image_tile_batch(self, tiles, digests, image_batch, context):
        self.batches.append([np.array(tiles[index])
                             for index in range(len(tiles))])
        return super().image_tile_batch(tiles, digests, image_batch, context)
