"""Batched SOCS imaging — the one numerical "kernel bank -> aerial image".

Every aerial image in the package (a single tile, a batch, a layout tile, a
learned or a golden bank) comes from :func:`batched_aerial_from_kernels`.  A
batch ``(B, H, W)`` is cut **once**, into blocks of
:func:`effective_chunk_tiles` tiles, and each block moves through the
pipeline as one array program:

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

The block budget is read off the backend: :data:`BLOCK_BYTES` on a host
backend, so neither per-block intermediate — the coherent-field stack, the
upsampling spectrum — leaves the CPU caches for DRAM;
:data:`RESIDENT_BLOCK_BYTES` on a device-resident one, where a block is the
upload unit.  The band-limited body works through two zeroed scratch arrays
— the embedded kernel products and the corner rows of the upsampling half
spectrum, whose non-zero parts every block overwrites.  The scratch relies on
no transform modifying its input (an :class:`~repro.backend.FFTBackend`
contract); block size never changes a tile's result.

The thread budget is read off the backend too (``backend.workers``:
``fft_workers`` / ``REPRO_FFT_WORKERS``, default the CPUs available) and is
spent **on tiles, not inside transforms**: a batch of ``B > 1`` tiles is
cut into ``min(workers, B)`` contiguous shares, the calling thread images
the first and helper threads the rest, and every share transforms through
the backend's one-thread sibling
(:meth:`~repro.backend.FFTBackend.single_threaded`) with its own scratch and
its part of :data:`BLOCK_BYTES`.  Measured on 2 CPUs, 36 production tiles:
two threads *inside* each transform buy 1.3x over one thread (the kernel
product, embed, ``|field|^2`` and copies between transforms stay serial),
two threads *on blocks* 1.6x; and a batch of 2-4 tiles (one block) is
faster as two shares than as one call with two-thread transforms.  This
is the only place the package images tiles in parallel.  A backend without
such a sibling (numpy, pyfftw, any transforms-only subclass), a
device-resident one and a single tile image on the calling thread exactly
as before.  Shares never change a tile's bits either: each 1-D line of each
transform is an independent, deterministic work item.  The scratch holds no
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
* **Device residency** — when the backend is device-resident
  (:attr:`~repro.backend.FFTBackend.is_resident`: cupy, or the CI-testable
  ``fakegpu``), each block pays exactly one host->device upload and one
  device->host download; spectra, kernel products, fields, the
  ``|field|^2`` reduction and the Fourier upsampling all run in the
  backend's array namespace on the device.  Host backends inherit that
  namespace from :class:`~repro.backend.FFTBackend`, where every op is the
  numpy expression, so host results are bit-for-bit plain numpy.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Tuple, Union

import numpy as np

from ..backend import FFTBackend, Precision, get_backend, resolve_precision
from ..optics.aerial import mask_spectrum
from ..optics.grid import embed_centre_unshifted

#: Bytes a host block's largest intermediate may take — the
#: ``(block, r, gh, gw)`` coherent-field stack or the ``(block, H, W)``
#: upsampling spectrum, whichever is larger: what the cores keep near their
#: caches, so the threads of one call divide it.  Measured on the
#: 24 x 29 x 29 production bank (1.3 MiB of fields per tile): 4 tiles per
#: block image a 36-tile batch fastest on one thread, 1 and 36 both lose; on
#: two threads 6 MiB *each* is no faster than 3 and reads 168 MiB peak RSS
#: against 156.
BLOCK_BYTES = 6 * 2 ** 20

#: The same bound for a block on a device-resident backend, where a block is
#: the upload unit and there is no cache to stay inside (256 MiB: 2**24
#: complex128 samples).  The layout pipeline bounds a stream batch's RAM by
#: the same figure (``ExecutionEngine.stream_batch_tiles``).
RESIDENT_BLOCK_BYTES = 2 ** 28

#: Names this module's output bits in the tile-cache key
#: (``ExecutionEngine.kernel_fingerprint``) and the campaign-store identity
#: (``EngineSpec.fingerprint``).  Change it whenever results move, even at
#: rounding level: old tiles must never be stitched into a new image, nor an
#: old store resumed half-new.  (``band=True``: the ``2n x 2m`` grid, PRs 2-18.)
FORWARD_REVISION = "band=fast-grid"


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
    kernels and ``(B, n, m)`` centred spectra -> ``(B, r, grid_h, grid_w)``.

    The zero target (or the reusable zeroed ``out``) lives where the products
    do, as in :func:`mask_spectrum`: host operands on a device backend pay
    one counted round trip in the transform.
    """
    products = kernels[None, :, :, :] * spectra[:, None, :, :]
    space = xp if xp.is_device_array(products) else np
    embedded = embed_centre_unshifted(products, grid_h, grid_w, xp=space,
                                      out=out)
    return xp.ifft2(embedded, norm="ortho")


def _direct_chunk(masks, kernels, out_h: int, out_w: int, xp: FFTBackend):
    """One block at full output resolution, for an output smaller than the
    :func:`band_limit_grid`.

    ``xp`` is the backend the block lives in: a host backend leaves every
    expression bit-for-bit plain numpy; a device backend (cupy / fakegpu)
    receives device-resident ``masks`` / ``kernels`` and returns a
    device-resident intensity block — no transfer happens here.
    """
    n, m = kernels.shape[-2], kernels.shape[-1]
    spectra = mask_spectrum(masks, (n, m), backend=xp)          # (B, n, m)
    return xp.abs2_sum(coherent_fields(kernels, spectra, out_h, out_w, xp),
                       axis=1)


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

    Like :func:`_direct_chunk`, the whole pipeline — spectrum, kernel
    product, fields, ``|field|^2`` reduction, upsampling — runs inside
    ``xp``'s namespace, so a device block stays resident end to end.
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
    small = xp.abs2_sum(fields, axis=1)                    # (rows, gh, gw)

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
                                out: Optional[np.ndarray] = None,
                                ) -> np.ndarray:
    """Aerial images of a mask batch ``(B, H, W)`` -> ``(B, H, W)``.

    Evaluated on the intensity band-limit grid (:func:`band_limit_grid`) and
    Fourier-upsampled (exact) whenever that grid fits the output; at full
    output size otherwise.

    Parameters
    ----------
    masks:
        Real mask batch ``(B, H, W)``; any real dtype is accepted.
    kernels:
        Complex frequency-domain kernel stack ``(r, n, m)`` (centred DC),
        each kernel already scaled by ``sqrt(eigenvalue)``.  May already be
        a **device array** of the backend (the engine uploads its
        bank once and passes it here), in which case its dtype must match
        ``precision`` and no per-call upload happens.
    backend:
        FFT backend (instance or registered name); ``None`` resolves the
        default (``REPRO_FFT_BACKEND`` / auto).  On a device-resident one
        (``is_resident``: cupy, fakegpu) every block is **one upload of its
        masks and one download of its images**, every intermediate staying
        on the device; on a host one the "upload" is a view and the
        "download" the copy into the result rows.
    precision:
        Precision policy (:class:`~repro.backend.Precision` or name);
        ``None`` resolves the default (``REPRO_PRECISION`` / float64).
    out:
        Optional preallocated ``(B, H, W)`` host array (the layout pipeline's
        reusable — on CUDA, pinned — staging buffer) the results are written
        into; returned when given.  Results are identical either way.
    """
    xp = get_backend(backend) \
        if backend is None or isinstance(backend, str) else backend
    precision = resolve_precision(precision)
    masks = precision.as_real(masks)
    if masks.ndim != 3:
        raise ValueError("masks must have shape (B, H, W)")
    device_kernels = xp.is_device_array(kernels)
    if not device_kernels:
        kernels = precision.as_complex(kernels)
    elif np.dtype(kernels.dtype) != precision.complex_dtype:
        raise ValueError(
            f"device kernel bank dtype {kernels.dtype} does not match "
            f"precision {precision.name}; cast before uploading")
    if len(kernels.shape) != 3:
        raise ValueError("kernels must have shape (r, n, m)")
    batch = masks.shape[0]
    out_h, out_w = masks.shape[-2:]
    order, n, m = kernels.shape

    if out is None:
        out = np.empty((batch, out_h, out_w), dtype=precision.real_dtype)
    elif tuple(out.shape) != (batch, out_h, out_w):
        raise ValueError(
            f"out has shape {tuple(out.shape)}, expected "
            f"{(batch, out_h, out_w)}")
    elif np.dtype(out.dtype) != precision.real_dtype:
        raise ValueError(
            f"out has dtype {out.dtype}, expected {precision.real_dtype}")
    if batch == 0:
        return out

    if not device_kernels:
        # The bank goes up once per call unless it arrived resident (a host
        # backend's asarray is the identity).
        kernels = xp.asarray(kernels)
    grid = intensity_grid(n, m, out_h, out_w)
    band_limited = grid == band_limit_grid(n, m)

    def tiles_per_block(budget_bytes: int) -> int:
        return effective_chunk_tiles(batch, kernels.shape, out_h, out_w,
                                     budget_bytes, precision.complex_itemsize)

    # The backend's worker budget is spent on tiles: one contiguous share of
    # the batch per thread, each share transforming through the one-thread
    # sibling and keeping its part of the budget (the cores share the cache
    # BLOCK_BYTES names).  A single tile keeps ``xp`` — and its
    # in-transform threads — to itself.
    budget = RESIDENT_BLOCK_BYTES if xp.is_resident else BLOCK_BYTES
    serial = xp.single_threaded()
    threads = 1 if serial is xp or xp.is_resident else min(xp.workers, batch)
    if threads > 1:
        xp, budget = serial, budget // threads
    block = tiles_per_block(budget)

    def image(share: slice) -> None:
        if band_limited:
            evaluate = _band_limited_chunk
            # Zeroed once: every block overwrites the same corners and no zero.
            scratch = (
                xp.zeros((block, order) + grid, kernels.dtype),
                xp.zeros((block, out_h, m), kernels.dtype))
        else:
            evaluate, scratch = _direct_chunk, ()
        for start in range(share.start, share.stop, block):
            stop = min(start + block, share.stop)
            tiles = evaluate(xp.asarray(masks[start:stop]), kernels, out_h,
                             out_w, xp, *scratch)
            xp.to_host(tiles, out=out[start:stop])

    size = -(-batch // threads)
    shares = [slice(start, min(start + size, batch))
              for start in range(0, batch, size)]
    helpers = [_helper_threads().submit(image, share) for share in shares[1:]]
    try:
        image(shares[0])
        for helper in helpers:
            helper.result()
    finally:
        # Nothing propagates while a share may still write into ``out``.
        for helper in helpers:
            if not helper.cancel():
                helper.exception()  # running or done: wait, don't raise
    return out
