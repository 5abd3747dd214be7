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

The product also has exactly one SOCS forward (``ExecutionEngine.aerial_batch``
driving ``repro.engine.batched.image_tiles``), which picks its per-block body
from array shapes alone; :func:`bank_aerial` images a mask stack through it
with a bare kernel bank, a backend and a precision name,
:class:`RecordingBackend` lets a test see which body ran by the transform
shapes it issued, and
:func:`band_limited_blocks` says how many tiles each of those transforms
should have carried.

The product has one FFT library, ``numpy.fft``.  :class:`ScipyOracle` is
``scipy.fft`` behind the same four transforms, an independent
implementation a test holds the product's transforms against.  The
backend matrices run three cells (:data:`BACKEND_CELLS`): numpy on one
share, numpy spending a budget of two threads on shares — which
:func:`threads_seen` / :func:`assert_ran_on_shares` pin to the
``repro-block`` helper threads, so the cell cannot quietly collapse into
the one-share one — and a transforms-only subclass.

Training and ILT differentiate through that forward's field expression as one
autograd node (``repro.nn.functional.socs_intensity``);
:func:`reference_socs_intensity` is the op-by-op chain it replaced, each op
with its own backward, kept as the node's oracle.

The product cuts a layout's stream batches by one rule,
``ExecutionEngine.stream_batch_tiles``; :func:`stream_batches` is how a test
makes it cut smaller ones, and :class:`RecordingTileCache` how it sees the
rows each batch hands the tile cache.  :func:`stack_imaging` lets a tile-cache
test image its misses with a plain function of the miss stack instead of the
engine's loop.

It lives under ``tests/`` on purpose: the product keeps one path.
"""

import contextlib
import threading
from unittest import mock

import numpy as np

from repro.backend import (
    ComputeConfig,
    FFTBackend,
    NumpyFFTBackend,
    get_backend,
    resolve_precision,
)
from repro.engine import (
    ExecutionEngine,
    LayoutImage,
    TileResultCache,
    batched,
    extract_tiles,
    stitch_tiles,
)
from repro.nn import functional as F
from repro.nn.tensor import as_tensor
from repro.optics.grid import crop_centre


def embed_centre(block, height, width):
    """Zero-pad ``block`` (last two axes) at the centre of a ``(height,
    width)`` array, aligning the DC sample (index ``size // 2`` after
    ``fftshift``) of block and target: the centred embed Algorithm 1 writes,
    which the product spells shift-free as
    ``repro.optics.grid.embed_centre_unshifted``."""
    bh, bw = block.shape[-2], block.shape[-1]
    if bh > height or bw > width:
        raise ValueError(f"block ({bh}, {bw}) larger than target ({height}, {width})")
    out = np.zeros(block.shape[:-2] + (height, width), dtype=block.dtype)
    top = height // 2 - bh // 2
    left = width // 2 - bw // 2
    out[..., top:top + bh, left:left + bw] = block
    return out


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


def bank_aerial(masks, kernels, backend=None, precision=None):
    """``aerial_batch`` of a ``(B, H, W)`` mask stack on an uncalibrated
    engine over the ``(r, n, m)`` bank ``kernels``: ``backend`` an
    :class:`~repro.backend.FFTBackend` (``None``: the default), ``precision``
    a policy name (``None``: float64)."""
    engine = ExecutionEngine(kernels, fft_backend=backend,
                             compute=ComputeConfig(precision=precision))
    return engine.aerial_batch(masks)


class RecordingBackend(FFTBackend):
    """Only ``name`` + the four transforms, forwarded to
    ``get_backend(workers)`` — exactly what
    ``bench/probes.py::make_fft_probe`` subclasses — recording
    ``(method, shape)`` per call; ``irfft2`` records the shape it produces.
    It has no ``workers``, so the batched core runs it as one share."""

    def __init__(self, workers=None):
        self.inner = get_backend(workers)
        self.name = self.inner.name
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


class ScipyOracle(FFTBackend):
    """``scipy.fft`` behind the four transforms, on one thread: an FFT
    implementation independent of the product's ``numpy.fft``."""

    name = "scipy-oracle"

    def __init__(self):
        import scipy.fft

        self.fft = scipy.fft

    def fft2(self, array, norm=None):
        return self.fft.fft2(array, norm=norm)

    def ifft2(self, array, norm=None):
        return self.fft.ifft2(array, norm=norm)

    def rfft2(self, array, norm=None):
        return self.fft.rfft2(array, norm=norm)

    def irfft2(self, array, s, norm=None):
        return self.fft.irfft2(array, s=s, norm=norm)


#: The backend matrices' cells: the numpy backend with a budget of one
#: thread, the same with a budget of two (the share path) and a
#: transforms-only :class:`RecordingBackend`.
NUMPY, SHARES, TRANSFORMS_ONLY = "numpy", "numpy-shares", "transforms-only"
BACKEND_CELLS = (NUMPY, SHARES, TRANSFORMS_ONLY)


def cell_backend(cell):
    """A backend for one of :data:`BACKEND_CELLS`."""
    if cell == TRANSFORMS_ONLY:
        return RecordingBackend(workers=1)
    return get_backend(2 if cell == SHARES else 1)


_TRANSFORMS = ("fft2", "ifft2", "rfft2", "irfft2", "rfft2_columns",
               "irfft2_zero_extended", "ifft2_row_band")


@contextlib.contextmanager
def threads_seen():
    """Context manager yielding the set of names of the threads on which a
    :class:`~repro.backend.NumpyFFTBackend` transform ran inside the
    ``with`` block, whoever built the backend."""
    seen = set()

    def recorded(transform):
        def transform_on_thread(self, *args, **kwargs):
            seen.add(threading.current_thread().name)
            return transform(self, *args, **kwargs)
        return transform_on_thread

    with contextlib.ExitStack() as stack:
        for method in _TRANSFORMS:
            stack.enter_context(mock.patch.object(
                NumpyFFTBackend, method,
                recorded(getattr(NumpyFFTBackend, method))))
        yield seen


def assert_ran_on_shares(seen):
    """The calling thread and a ``repro-block`` helper both transformed."""
    assert threading.current_thread().name in seen, seen
    assert any(name.startswith("repro-block") for name in seen), seen


@contextlib.contextmanager
def transforms_only_engines():
    """Every engine built inside the ``with`` block — an ``EngineSpec``'s,
    an executor's, a sweep's — transforms through one
    :class:`RecordingBackend`, which the context manager yields."""
    recorder = RecordingBackend(workers=1)
    with mock.patch("repro.engine.execution.get_backend",
                    lambda *args: recorder):
        yield recorder


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


def stack_imaging(image, context):
    """The imaging loop's protocol, ``image_tiles(count, read, write)``,
    over ``image(stack)``: a function of one whole ``(count, tile_px,
    tile_px)`` mask stack, what a test hands
    ``TileResultCache.image_tile_batch`` in place of the engine's loop.

    It reads all ``count`` tiles into one buffer in ``context``'s
    precision, as the loop's mask buffer is, images them in one call and
    writes their cores (the ``context.guard_px`` crop, as the loop writes
    them) as one block; ``.batches`` keeps a copy of each stack.
    """
    shape = (context.tile_px, context.tile_px)
    dtype = resolve_precision(context.precision).real_dtype
    core = slice(context.guard_px, context.tile_px - context.guard_px)

    def image_tiles(count, read, write):
        masks = read(0, count, np.empty((count,) + shape, dtype))
        image_tiles.batches.append(masks.copy())
        write(0, np.asarray(image(masks))[:, core, core])

    image_tiles.batches = []
    return image_tiles
