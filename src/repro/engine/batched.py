"""Batched SOCS imaging — the one numerical "kernel bank -> aerial image".

Every aerial image in the package (a single tile, a batch, a layout tile, a
learned or a golden bank) comes from one loop, :func:`image_tiles`: a
stack through :func:`batched_aerial_from_kernels`, a layout's windows
through ``ExecutionEngine.image_layout``.  The tiles are cut **once**, into
blocks of :func:`effective_chunk_tiles` tiles, and each block moves through
the pipeline as one array program:

1. one broadcast FFT produces every mask spectrum at once,
2. one broadcast multiply forms the ``(block, r, n, m)`` kernel products,
3. one batched inverse FFT of their ``n``-row band returns the coherent
   fields, and
4. a reduction over the kernel axis yields the aerial intensities.

Steps 2-3 are :func:`coherent_fields`, the package's one statement of
Eq. (4)'s fields; training and ILT differentiate through it too.

On top of that, the paper's band-limit argument (Eq. (10)) buys a large
speed-up: the coherent fields only carry ``n x m`` frequency samples, so the
intensity — whose spectrum is the autocorrelation of the field spectrum — is
band-limited to ``(2n - 1) x (2m - 1)`` samples.  The intensity is therefore
evaluated exactly on the smallest FFT-friendly grid that holds that band
(:func:`band_limit_grid`: 60 x 60 for a 29 x 29 window, where ``2n = 58`` is
2 x prime 29) and Fourier-upsampled (zero-pad in the frequency domain, an
exact sinc interpolation for band-limited signals) to the requested output
resolution (:func:`_band_limited_chunk`).  Only an output smaller than that
grid (coarse pixels, tiny tiles) is evaluated at full size instead
(:func:`_direct_chunk`); the array shapes alone decide, there is no switch.

The block budget is :data:`BLOCK_BYTES`, so neither per-block
intermediate — the coherent-field stack, the upsampling spectrum — leaves
the CPU caches for DRAM.  The band-limited body works through two zeroed
scratch arrays — the row band of embedded kernel products and the corner
rows of the upsampling half spectrum, whose non-zero parts every block
overwrites.  The scratch relies on no transform modifying its input (an
:class:`~repro.backend.FFTBackend` contract); block size never changes a
tile's result.

What a tile returns is its **core** (:func:`image_tiles`' ``guard``): the
square a stitch or a tile-cache entry keeps, bit for bit that crop of the
whole image.

The thread budget is read off the backend too (``backend.workers``:
``fft_workers`` / ``REPRO_FFT_WORKERS``, default the CPUs available) and is
spent **on tiles, not inside transforms** (:func:`share_threads`): a call
of ``B > 1`` tiles runs as ``min(workers, B)`` contiguous shares
(:func:`run_shares`, the package's one fan-out), each transforming on its
own thread with its own mask buffer and scratch and its part of
:data:`BLOCK_BYTES`.  A share reads its tiles (``read``), images them and
hands each block on (``write``) before reading the next, so a layout's
windows are read, imaged, stitched and developed inside the share.
Measured on 2 CPUs, 36 production tiles: two threads *inside* each
transform (``scipy.fft``'s ``workers=2``) bought 1.3x over one thread (the
kernel product, embed, ``|field|^2`` and copies between transforms stay
serial), two threads *on blocks* 1.6x, and a one-block batch of 2-4 tiles is faster
as two shares too.  A backend without a budget (``workers`` ``None``: a
transforms-only subclass) and a single tile stay on the calling thread;
for one 64-512 px tile, ``scipy.fft``'s ``workers=2`` was no faster than
:meth:`~repro.backend.NumpyFFTBackend.ifft2`'s two passes on one thread.
Shares never change a tile's bits: each 1-D line of each transform is an
independent, deterministic work item.  The one thing this module keeps
across calls is the idle helper threads (:func:`_helper_threads`).

Every transform but the intensity's small ``rfft2`` skips passes nobody
reads or whose input is zero: the mask spectrum keeps ``m // 2 + 1`` of a
tile's ``W // 2 + 1`` half-spectrum columns (``rfft2_columns``); the
coherent fields transform the ``n`` of ``grid_h`` rows that carry data
(``ifft2_row_band``: 29 of 60 on the production bank); and the upsampling
inverse-transforms a half spectrum whose columns from ``m`` on are zero,
finishing only the core's rows (``irfft2_zero_extended``: 198 of 256 on a
production tile) — bit for bit the full transforms' results on every
backend.  Measured on 2 CPUs at the production tile (numpy): pruning the
field rows took 4-7 % off a block, pruning the upsampled rows too 9-12 %.

Every transform goes through the pluggable compute backend
(:mod:`repro.backend`); everything between them — kernel products, embeds,
the ``|field|^2`` reduction, the upsampling's corner copies — is plain
numpy.  Masks and intensities are real, so the forward transforms use
``rfft2`` half spectra (the centred kernel window gathered via Hermitian
symmetry), and the embeds write quadrants straight into unshifted layout:
no full-size ``fftshift`` survives in the loop.  A
:class:`~repro.backend.Precision` threads the dtype through the pipeline;
float32 halves every byte moved, so the byte-denominated block holds twice
the tiles.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..backend import FFTBackend, Precision, get_backend, resolve_precision
from ..optics.aerial import mask_spectrum
from ..optics.grid import embed_centre_unshifted

#: Bytes a host block's largest intermediate may take — the
#: ``(block, r, gh, gw)`` coherent-field stack or the ``(block, H, W)``
#: upsampling spectrum, whichever is larger: what the cores keep near their
#: caches, so the threads of one call divide it.  The packed production bank
#: is 12 x 29 x 29 (0.66 MiB of fields per tile), so on 256 px tiles the
#: 1 MiB upsampling spectrum sets the block: 6 tiles on one thread, 3 per
#: share on two.  Measured on 2 CPUs with a 36-tile batch: one thread is as
#: fast at 3 MiB and 12 % slower at 12; on two threads 3 MiB in all
#: (1 tile per share) is no faster, often 20 % slower, and 12 MiB no faster.
BLOCK_BYTES = 6 * 2 ** 20

#: Names this module's output bits in the tile-cache key
#: (``ExecutionEngine.kernel_fingerprint``) and the campaign-store identity
#: (``EngineSpec.fingerprint``).  Change it whenever results move, even at
#: rounding level: old tiles must never be stitched into a new image, nor an
#: old store resumed half-new.  (``band=True``: the ``2n x 2m`` grid;
#: ``band=fast-grid``: the band-limit grid, one complex eigenkernel per
#: transform of a golden bank; ``fft=numpy``: ``numpy.fft``'s bits, where
#: the default forward used to run on ``scipy.fft``.)
FORWARD_REVISION = "band=fast-grid|bank=packed-real-field|fft=numpy"


_helpers_lock = threading.Lock()
_helpers: Optional[ThreadPoolExecutor] = None


def _helper_threads() -> ThreadPoolExecutor:
    """The process-wide threads that run every share of a
    :func:`run_shares` call but the caller's: :func:`image_tiles`' imaging
    shares and a tile-cached batch's stitch-and-develop shares.  Started on
    first use and kept: glibc gives each fresh thread a malloc arena of its
    own, so on ``dense_chip`` a helper thread per call reads +14 % peak RSS
    and a pool per call +30 % (and both slow whatever runs next) where
    these read +7 %; an idle one costs nothing."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(thread_name_prefix="repro-block")
        return _helpers


def _forget_helper_threads() -> None:
    # A forked child inherits the executor but none of its threads.
    global _helpers, _helpers_lock
    _helpers, _helpers_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper_threads)


def share_threads(xp: FFTBackend, count: int) -> int:
    """Threads a call of ``count`` tiles spreads over on backend ``xp``:
    ``min(workers, count)``, and one for a backend without a budget (a
    transforms-only subclass)."""
    return max(1, min(xp.workers or 1, count))


def run_shares(count: int, threads: int, run: Callable[..., None],
               prepare: Callable[[range], tuple] = lambda share: ()) -> None:
    """``run(share, *prepare(share))`` over ``min(threads, count)``
    contiguous shares of ``0 .. count - 1``: the first on the calling
    thread, the rest on :func:`_helper_threads`.  ``prepare`` runs on the
    calling thread (a helper's malloc arena would keep what it allocates).
    Every share settles before anything propagates: queued shares are
    cancelled, running ones awaited, so nothing writes after the call."""
    if count <= 0:
        return
    size = -(-count // min(threads, count))
    work = [(share,) + prepare(share)
            for share in (range(start, min(start + size, count))
                          for start in range(0, count, size))]
    helpers = [_helper_threads().submit(run, *args) for args in work[1:]]
    try:
        run(*work[0])
        for helper in helpers:
            helper.result()
    finally:
        # Nothing propagates while a share may still read or write.
        for helper in helpers:
            if not helper.cancel():
                helper.exception()  # running or done: wait, don't raise


def coherent_fields(kernels, spectra, grid_h: int, grid_w: int,
                    xp: FFTBackend, band=None):
    """Eq. (4)'s coherent fields ``ifft2(embed(K_i * S_b))``: ``(r, n, m)``
    kernels and ``(B, n, m)`` centred spectra -> ``(B, r, grid_h, grid_w)``.

    The products are embedded along the columns only, into the
    ``(B, r, n, grid_w)`` row band (the reusable ``band``, zero wherever no
    embed writes, when given); the backend's
    :meth:`~repro.backend.FFTBackend.ifft2_row_band` zero-extends the rows.
    """
    products = kernels[None, :, :, :] * spectra[:, None, :, :]
    band = embed_centre_unshifted(products, kernels.shape[-2], grid_w,
                                  out=band)
    return xp.ifft2_row_band(band, grid_h, norm="ortho")


def _direct_chunk(masks, kernels, out_h: int, out_w: int, guard: int,
                  xp: FFTBackend):
    """One block at full output resolution, for an output smaller than the
    :func:`band_limit_grid`: the ``guard``-cropped cores.
    """
    n, m = kernels.shape[-2], kernels.shape[-1]
    spectra = mask_spectrum(masks, (n, m), backend=xp)          # (B, n, m)
    fields = coherent_fields(kernels, spectra, out_h, out_w, xp)
    intensity = np.sum(np.abs(fields) ** 2, axis=1)
    return intensity[:, guard:out_h - guard, guard:out_w - guard]


def band_limit_grid(n: int, m: int) -> Tuple[int, int]:
    """Smallest FFT-friendly grid holding the ``(2n - 1) x (2m - 1)`` intensity
    band of an ``n x m`` kernel window: per side, the next length from
    ``2n - 1`` up whose prime factors all have a pocketfft radix kernel —
    29 -> 60, 7 -> 14, 13 -> 25 (it may be odd, and smaller than ``2n``).
    """
    def fast_len(length: int) -> int:
        rest = length
        for prime in (2, 3, 5, 7, 11):
            while rest % prime == 0:
                rest //= prime
        return length if rest == 1 else fast_len(length + 1)

    return fast_len(2 * n - 1), fast_len(2 * m - 1)


def _band_limited_chunk(masks, kernels, out_h: int, out_w: int, guard: int,
                        xp: FFTBackend, band, padded):
    """One block, exactly, on the intensity band-limit grid + Fourier
    upsampling: the ``guard``-cropped cores.

    ``band`` ``(>= rows, r, n, gw)`` and ``padded`` ``(>= rows, out_h, m)``
    are the caller's scratch, zero wherever no block writes.
    """
    n, m = kernels.shape[-2], kernels.shape[-1]
    grid_h, grid_w = band_limit_grid(n, m)
    rows = masks.shape[0]
    spectra = mask_spectrum(masks, (n, m), backend=xp)
    fields = coherent_fields(kernels, spectra, grid_h, grid_w, xp,
                             band=band[:rows])
    small = np.sum(np.abs(fields) ** 2, axis=1)            # (rows, gh, gw)

    # The intensity spectrum occupies the centred samples |row| < n,
    # |col| < m, so zero-padding it to (out_h, out_w) is an exact sinc
    # interpolation.  The small intensity is real: columns 0..m-1 of its
    # rfft2 are the whole band, and placing the n non-negative and n - 1
    # negative frequency rows at the target's corners is that padding —
    # without ever forming the full spectrum or shifting it.  The "forward"
    # norm preserves sample values; the area ratio restores the
    # orthonormal-FFT intensity scale of the full-resolution evaluation.
    # Only the core rows are inverse-transformed to the end; the columns
    # of a real transform's output come whole and are cropped.
    scale = masks.dtype.type((grid_h * grid_w) / float(out_h * out_w))
    half = xp.rfft2_columns(small, m, norm="forward") * scale
    spectrum = padded[:rows]
    spectrum[..., :n, :] = half[..., :n, :]
    spectrum[..., out_h - (n - 1):, :] = half[..., grid_h - (n - 1):, :]
    cores = xp.irfft2_zero_extended(spectrum, s=(out_h, out_w),
                                    norm="forward",
                                    rows=slice(guard, out_h - guard))
    return cores[..., guard:out_w - guard]


def batch_chunk_size(batch: int, order: int, height: int, width: int,
                     budget_bytes: int, itemsize: int = 16) -> int:
    """Most tiles (at least 1, at most ``batch``) keeping
    ``tiles * r * H * W * itemsize`` bytes within the budget.

    The budget is denominated in bytes, so a single-precision run
    (``itemsize=8`` complex64 samples) fits twice the tiles of a
    double-precision one.
    """
    per_mask = max(1, order * height * width * itemsize)
    return int(np.clip(budget_bytes // per_mask, 1, max(batch, 1)))


def intensity_grid(n: int, m: int, out_h: int, out_w: int) -> Tuple[int, int]:
    """Where an ``out_h x out_w`` output's intensity is evaluated: the
    :func:`band_limit_grid` when it fits, else the output itself."""
    grid = band_limit_grid(n, m)
    return grid if grid[0] <= out_h and grid[1] <= out_w else (out_h, out_w)


def effective_chunk_tiles(batch: int, kernel_shape: Tuple[int, int, int],
                          out_h: int, out_w: int, budget_bytes: int,
                          itemsize: int = 16) -> int:
    """Tiles per block of a ``batch``-tile call under ``budget_bytes``.

    Bounds BOTH per-block intermediates: the ``(block, r, work_h, work_w)``
    kernel-product stack and the ``(block, out_h, out_w)`` complex
    upsampling spectrum of the band-limited body (its half-spectrum scratch
    plus the real block it becomes).
    """
    order, n, m = kernel_shape
    work_h, work_w = intensity_grid(n, m, out_h, out_w)
    return min(batch_chunk_size(batch, order, work_h, work_w,
                                budget_bytes, itemsize),
               batch_chunk_size(batch, 1, out_h, out_w,
                                budget_bytes, itemsize))


def batched_aerial_from_kernels(masks: np.ndarray, kernels: np.ndarray,
                                backend: Optional[FFTBackend] = None,
                                precision: Optional[Union[Precision, str]] = None,
                                ) -> np.ndarray:
    """Aerial images of a mask batch ``(B, H, W)`` -> ``(B, H, W)``.

    Evaluated on the intensity band-limit grid (:func:`band_limit_grid`) and
    Fourier-upsampled (exact) whenever that grid fits the output; at full
    output size otherwise.  This is :func:`image_tiles` reading blocks of
    ``masks`` rows and landing them in the same rows of the result.

    Parameters
    ----------
    masks:
        Real mask batch ``(B, H, W)``; any real dtype is accepted.
    kernels:
        Complex frequency-domain kernel stack ``(r, n, m)`` (centred DC),
        each kernel already scaled by ``sqrt(eigenvalue)``.
    backend:
        FFT backend; ``None`` is :func:`~repro.backend.get_backend`'s.
    precision:
        Precision policy (:class:`~repro.backend.Precision` or name);
        ``None`` is float64.
    """
    xp = get_backend() if backend is None else backend
    precision = resolve_precision(precision)
    masks = precision.as_real(masks)
    if masks.ndim != 3:
        raise ValueError("masks must have shape (B, H, W)")
    kernels = precision.as_complex(kernels)
    if kernels.ndim != 3:
        raise ValueError("kernels must have shape (r, n, m)")
    return image_tiles(masks.shape[0], masks, None, kernels, xp, precision,
                       masks.shape[-2:])


def image_tiles(count: int,
                read: Union[np.ndarray, Callable[[int, int, np.ndarray],
                                                 np.ndarray]],
                write: Optional[Callable[[int, np.ndarray], None]],
                kernels: np.ndarray, xp: FFTBackend, precision: Precision,
                tile_shape: Tuple[int, int],
                guard: int = 0) -> Optional[np.ndarray]:
    """Image tiles ``0 .. count - 1``: the package's one imaging loop.

    ``read`` holds the masks: a ``(count, H, W)`` real stack, imaged a row
    block at a time, or ``read(start, stop, buffer)`` returning tiles
    ``start .. stop - 1`` as one ``(stop - start, H, W)`` array — normally
    ``buffer``, the share's own block-sized mask buffer (in
    ``precision``), filled tile by tile.  Each tile's image is its
    **core**: the ``(H - 2 guard, W - 2 guard)`` square inside a ``guard``
    px band, bit for bit that crop of the whole image, and the guard rows
    are never upsampled.  ``write(start, cores)`` receives each block's
    cores, valid only for the duration of the call — copy what you keep;
    without ``write`` the call returns the ``(count, H - 2 guard,
    W - 2 guard)`` cores.  ``kernels`` is the ``(r, n, m)`` bank, cast to
    ``precision``.

    Each thread share reads its tiles into a block-sized mask buffer of
    its own, images them block by block and writes every core before the
    next block, so nothing ``count``-sized is ever allocated.
    """
    out_h, out_w = tile_shape
    order, n, m = kernels.shape
    grid = intensity_grid(n, m, out_h, out_w)
    band_limited = grid == band_limit_grid(n, m)
    stack = None if callable(read) else precision.as_real(read)
    out = None if write is not None else np.empty(
        (count, out_h - 2 * guard, out_w - 2 * guard), precision.real_dtype)

    # One share per thread, each with its part of the budget (the cores
    # share the cache BLOCK_BYTES names).
    threads = share_threads(xp, count)
    budget = BLOCK_BYTES // threads
    block = effective_chunk_tiles(count, kernels.shape, out_h, out_w, budget,
                                  precision.complex_itemsize)
    evaluate = _band_limited_chunk if band_limited else _direct_chunk

    def workspace(share: range) -> tuple:
        rows = min(block, len(share))
        masks = None if stack is not None \
            else np.empty((rows,) + tile_shape, precision.real_dtype)
        if not band_limited:
            return masks, ()
        # Zeroed once: every block overwrites the same corners and no zero.
        # No field scratch: each block's fields are allocated by the share
        # that writes them (one allocated here, on the calling thread, made
        # two shares of 2-8 64-px tiles 20-40 % slower than one, measured
        # on 2 CPUs).
        return masks, (np.zeros((rows, order, n, grid[1]), kernels.dtype),
                       np.zeros((rows, out_h, m), kernels.dtype))

    def image(share: range, masks: Optional[np.ndarray],
              scratch: tuple) -> None:
        for start in range(share.start, share.stop, block):
            stop = min(start + block, share.stop)
            cores = evaluate(stack[start:stop] if masks is None
                             else read(start, stop, masks),
                             kernels, out_h, out_w, guard, xp, *scratch)
            if write is None:
                out[start:stop] = cores
            else:
                write(start, cores)

    run_shares(count, threads, image, workspace)
    return out
