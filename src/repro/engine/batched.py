"""Batched SOCS imaging — the one numerical "kernel bank -> aerial image".

Every aerial image in the package (a single tile, a batch, a layout tile, a
learned or a golden bank) comes from one loop, :func:`image_tiles`: a
stack through :func:`batched_aerial_from_kernels`, a layout's windows
through ``ExecutionEngine.image_layout``.  The tiles are cut **once**, into
blocks of :func:`effective_chunk_tiles` tiles, and each block moves through
the pipeline as one array program:

1. one broadcast FFT produces every mask spectrum at once,
2. one broadcast multiply forms the ``(block, r, n, m)`` kernel products,
3. one batched inverse FFT returns the coherent fields, and
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
scratch arrays — the embedded kernel products and the corner rows of the
upsampling half spectrum, whose non-zero parts every block overwrites.
The scratch relies on no transform modifying its input (an
:class:`~repro.backend.FFTBackend` contract); block size never changes a
tile's result.

The thread budget is read off the backend too (``backend.workers``:
``fft_workers`` / ``REPRO_FFT_WORKERS``, default the CPUs available) and is
spent **on tiles, not inside transforms**: a call of ``B > 1`` tiles is
cut into ``min(workers, B)`` contiguous shares, the calling thread images
the first and helper threads the rest, and every share transforms through
the backend's one-thread sibling
(:meth:`~repro.backend.FFTBackend.single_threaded`) with its own mask
buffer and scratch (allocated by the calling thread) and its part of
:data:`BLOCK_BYTES`.  The share is the unit of work from window to result:
it reads its tiles (``read``), images them and hands each block on
(``write``) before reading the next — a layout's windows are read, imaged,
stitched and developed inside the share, so the layout path holds no
batch-sized array and no serial stitch.  Measured on 2 CPUs, 36 production
tiles: two threads *inside* each transform buy 1.3x over one thread (the kernel
product, embed, ``|field|^2`` and copies between transforms stay serial),
two threads *on blocks* 1.6x; and a batch of 2-4 tiles (one block) is
faster as two shares than as one call with two-thread transforms.  This
is the only place the package images tiles in parallel.  A backend without
such a sibling (numpy, any transforms-only subclass) and a single tile
image on the calling thread exactly as before.  Shares never change a
tile's bits either: each 1-D line of each transform is an independent,
deterministic work item.  The scratch holds no
state across calls; the one thing this module keeps is the idle helper
threads (:func:`_helper_threads`, created under a lock).

Both full-size real transforms skip the passes nobody reads: the mask
spectrum keeps ``m // 2 + 1`` of a tile's ``W // 2 + 1`` half-spectrum
columns (``rfft2_columns``), and the upsampling inverse-transforms a half
spectrum whose columns from ``m`` on are zero (``irfft2_zero_extended``) —
bit for bit the full transforms' results on every backend.

Every transform goes through the pluggable compute backend
(:mod:`repro.backend`), which adds further hot-path wins:

* **Real-input fast path** — masks and intensities are real, so the forward
  transforms use ``rfft2`` half spectra (the centred kernel window is
  gathered via Hermitian symmetry) and the upsampling runs
  ``rfft2``/``irfft2``, halving the transform work; the embeds write
  quadrants directly into unshifted layout, so no per-block full-size
  ``fftshift``/``ifftshift`` survives in the loop.
* **Precision policy** — a :class:`~repro.backend.Precision` threads the
  dtype decision through the pipeline; float32 halves every byte moved, and
  because the block budget is denominated in **bytes** the tiles per block
  double.

Everything between the transforms — kernel products, embeds, the
``|field|^2`` reduction, the upsampling's corner copies — is plain numpy on
host arrays.
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
#: transform of a golden bank.)
FORWARD_REVISION = "band=fast-grid|bank=packed-real-field"


_helpers_lock = threading.Lock()
_helpers: Optional[ThreadPoolExecutor] = None


def _helper_threads() -> ThreadPoolExecutor:
    """The process-wide threads that image every share of a call but its
    first (the calling thread images that one).  Started on first use and
    kept: glibc gives each fresh thread a malloc arena of its own, so on
    ``dense_chip`` a helper thread per call reads +14 % peak RSS and a pool
    per call +30 % (and both slow whatever runs next) where these read
    +7 %; an idle one costs nothing.
    """
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


def coherent_fields(kernels, spectra, grid_h: int, grid_w: int,
                    xp: FFTBackend, out=None):
    """Eq. (4)'s coherent fields ``ifft2(embed(K_i * S_b))``: ``(r, n, m)``
    kernels and ``(B, n, m)`` centred spectra -> ``(B, r, grid_h, grid_w)``,
    embedded into the reusable zeroed ``out`` when given.
    """
    products = kernels[None, :, :, :] * spectra[:, None, :, :]
    embedded = embed_centre_unshifted(products, grid_h, grid_w, out=out)
    return xp.ifft2(embedded, norm="ortho")


def _direct_chunk(masks, kernels, out_h: int, out_w: int, xp: FFTBackend):
    """One block at full output resolution, for an output smaller than the
    :func:`band_limit_grid`.
    """
    n, m = kernels.shape[-2], kernels.shape[-1]
    spectra = mask_spectrum(masks, (n, m), backend=xp)          # (B, n, m)
    fields = coherent_fields(kernels, spectra, out_h, out_w, xp)
    return np.sum(np.abs(fields) ** 2, axis=1)


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


def _band_limited_chunk(masks, kernels, out_h: int, out_w: int,
                        xp: FFTBackend, embedded, padded):
    """One block, exactly, on the intensity band-limit grid + Fourier
    upsampling.

    ``embedded`` ``(>= rows, r, gh, gw)`` and ``padded``
    ``(>= rows, out_h, m)`` are the caller's scratch, zero wherever no block
    writes.
    """
    n, m = kernels.shape[-2], kernels.shape[-1]
    grid_h, grid_w = embedded.shape[-2:]
    rows = masks.shape[0]
    spectra = mask_spectrum(masks, (n, m), backend=xp)
    fields = coherent_fields(kernels, spectra, grid_h, grid_w, xp,
                             out=embedded[:rows])
    small = np.sum(np.abs(fields) ** 2, axis=1)            # (rows, gh, gw)

    # The intensity spectrum occupies the centred samples |row| < n,
    # |col| < m, so zero-padding it to (out_h, out_w) is an exact sinc
    # interpolation.  The small intensity is real: columns 0..m-1 of its
    # rfft2 are the whole band, and placing the n non-negative and n - 1
    # negative frequency rows at the target's corners is that padding —
    # without ever forming the full spectrum or shifting it.  The "forward"
    # norm preserves sample values; the area ratio restores the
    # orthonormal-FFT intensity scale of the full-resolution evaluation.
    scale = masks.dtype.type((grid_h * grid_w) / float(out_h * out_w))
    half = xp.rfft2_columns(small, m, norm="forward") * scale
    spectrum = padded[:rows]
    spectrum[..., :n, :] = half[..., :n, :]
    spectrum[..., out_h - (n - 1):, :] = half[..., grid_h - (n - 1):, :]
    return xp.irfft2_zero_extended(spectrum, s=(out_h, out_w), norm="forward")


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
                                backend: Optional[Union[FFTBackend, str]] = None,
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
        FFT backend (instance or registered name); ``None`` resolves the
        default (``REPRO_FFT_BACKEND`` / auto).
    precision:
        Precision policy (:class:`~repro.backend.Precision` or name);
        ``None`` resolves the default (``REPRO_PRECISION`` / float64).
    """
    xp = get_backend(backend) \
        if backend is None or isinstance(backend, str) else backend
    precision = resolve_precision(precision)
    masks = precision.as_real(masks)
    if masks.ndim != 3:
        raise ValueError("masks must have shape (B, H, W)")
    kernels = precision.as_complex(kernels)
    if kernels.ndim != 3:
        raise ValueError("kernels must have shape (r, n, m)")
    batch = masks.shape[0]
    out_h, out_w = masks.shape[-2:]

    if batch == 0:
        return np.empty((0, out_h, out_w), dtype=precision.real_dtype)
    return image_tiles(batch, masks, None, kernels, xp, precision,
                       (out_h, out_w))


def image_tiles(count: int,
                read: Union[np.ndarray, Callable[[int, int, np.ndarray],
                                                 np.ndarray]],
                write: Optional[Callable[[int, np.ndarray], None]],
                kernels: np.ndarray, xp: FFTBackend, precision: Precision,
                tile_shape: Tuple[int, int]) -> Optional[np.ndarray]:
    """Image tiles ``0 .. count - 1``: the package's one imaging loop.

    ``read`` holds the masks: a ``(count, H, W)`` real stack, imaged a row
    block at a time, or ``read(start, stop, buffer)`` returning tiles
    ``start .. stop - 1`` as one ``(stop - start, H, W)`` array — normally
    ``buffer``, the share's own block-sized mask buffer (in
    ``precision``), filled tile by tile.  ``write(start, images)`` receives
    each block's aerial images, valid only for the duration of the call —
    copy what you keep; without ``write`` the call returns the
    ``(count, H, W)`` images.  ``kernels`` is the ``(r, n, m)`` bank, cast
    to ``precision``.

    The thread share is the unit of work: each share reads its tiles into a
    block-sized mask buffer of its own, images them block by block and
    writes every image before the next block — so a layout is read,
    imaged, stitched and developed inside the share, and nothing
    ``count``-sized is ever allocated.  The workspaces are allocated here,
    on the calling thread (a helper's own malloc arena would keep them).
    """
    out_h, out_w = tile_shape
    order, n, m = kernels.shape
    grid = intensity_grid(n, m, out_h, out_w)
    band_limited = grid == band_limit_grid(n, m)
    stack = None if callable(read) else precision.as_real(read)
    out = None if write is not None \
        else np.empty((count,) + tile_shape, precision.real_dtype)

    # The backend's worker budget is spent on tiles: one contiguous share
    # per thread, each transforming through the one-thread sibling and
    # keeping its part of the budget (the cores share the cache
    # BLOCK_BYTES names).  A single tile keeps ``xp`` — and its
    # in-transform threads — to itself.
    serial = xp.single_threaded()
    threads = 1 if serial is xp else min(xp.workers, count)
    budget = BLOCK_BYTES // threads
    if threads > 1:
        xp = serial
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
        return masks, (np.zeros((rows, order) + grid, kernels.dtype),
                       np.zeros((rows, out_h, m), kernels.dtype))

    def image(share: range, masks: Optional[np.ndarray],
              scratch: tuple) -> None:
        for start in range(share.start, share.stop, block):
            stop = min(start + block, share.stop)
            tiles = evaluate(stack[start:stop] if masks is None
                             else read(start, stop, masks),
                             kernels, out_h, out_w, xp, *scratch)
            if write is None:
                out[start:stop] = tiles
            else:
                write(start, tiles)

    size = -(-count // threads)
    shares = [range(start, min(start + size, count))
              for start in range(0, count, size)]
    work = [(share,) + workspace(share) for share in shares]
    helpers = [_helper_threads().submit(image, *args) for args in work[1:]]
    try:
        image(*work[0])
        for helper in helpers:
            helper.result()
    finally:
        # Nothing propagates while a share may still read or write.
        for helper in helpers:
            if not helper.cancel():
                helper.exception()  # running or done: wait, don't raise
    return out
