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
allocated once per call — the embedded kernel products and the zero-padded
half spectrum, whose non-zero corners every block overwrites.  The scratch
relies on no transform modifying its input (an
:class:`~repro.backend.FFTBackend` contract), holds no state across calls and
needs no lock; block size never changes a tile's result.

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

from typing import Optional, Tuple, Union

import numpy as np

from ..backend import FFTBackend, Precision, get_backend, resolve_precision
from ..optics.aerial import mask_spectrum
from ..optics.grid import embed_centre_unshifted

#: Bytes a host block's largest intermediate may take — the
#: ``(block, r, gh, gw)`` coherent-field stack or the ``(block, H, W)``
#: upsampling spectrum, whichever is larger: what a core keeps near its
#: caches.  Measured on the 24 x 29 x 29 production bank (1.3 MiB of fields
#: per tile): 4 tiles per block image a 36-tile batch fastest; 1 and 36 both
#: lose.
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
    products = kernels[None, :, :, :] * spectra[:, None, :, :]  # (B, r, n, m)
    embedded = embed_centre_unshifted(products, out_h, out_w, xp=xp)
    fields = xp.ifft2(embedded, norm="ortho")
    return xp.abs2_sum(fields, axis=1)


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
    ``(>= rows, out_h, out_w // 2 + 1)`` are the caller's scratch, zero
    wherever no block writes.
    """
    n, m = kernels.shape[-2], kernels.shape[-1]
    grid_h, grid_w = embedded.shape[-2:]
    rows = masks.shape[0]
    spectra = mask_spectrum(masks, (n, m), backend=xp)
    products = kernels[None, :, :, :] * spectra[:, None, :, :]
    fields = xp.ifft2(
        embed_centre_unshifted(products, grid_h, grid_w, out=embedded[:rows]),
        norm="ortho")
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
    half = xp.rfft2(small, norm="forward") * scale
    spectrum = padded[:rows]
    spectrum[..., :n, :m] = half[..., :n, :m]
    spectrum[..., out_h - (n - 1):, :m] = half[..., grid_h - (n - 1):, :m]
    return xp.irfft2(spectrum, s=(out_h, out_w), norm="forward")


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


def _fits_band_limit_grid(n: int, m: int, out_h: int, out_w: int) -> bool:
    """Whether the :func:`band_limit_grid` fits inside the output."""
    grid_h, grid_w = band_limit_grid(n, m)
    return grid_h <= out_h and grid_w <= out_w


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
    work_h, work_w = band_limit_grid(n, m) \
        if _fits_band_limit_grid(n, m, out_h, out_w) else (out_h, out_w)
    return min(batch_chunk_size(batch, order, work_h, work_w,
                                budget_bytes, itemsize),
               batch_chunk_size(batch, 1, out_h, out_w,
                                budget_bytes, itemsize))


def batched_aerial_from_kernels(masks: np.ndarray, kernels: np.ndarray,
                                output_shape: Optional[Tuple[int, int]] = None,
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
    output_shape:
        Resolution of the returned aerial images; defaults to the mask shape.
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
    out_h, out_w = masks.shape[-2:] if output_shape is None else output_shape
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

    block = effective_chunk_tiles(
        batch, kernels.shape, out_h, out_w,
        RESIDENT_BLOCK_BYTES if xp.is_resident else BLOCK_BYTES,
        precision.complex_itemsize)
    if not device_kernels:
        # The bank goes up once per call unless it arrived resident (a host
        # backend's asarray is the identity).
        kernels = xp.asarray(kernels)
    if _fits_band_limit_grid(n, m, out_h, out_w):
        evaluate = _band_limited_chunk
        # Zeroed once: every block overwrites the same corners and no zero.
        scratch = (
            xp.zeros((block, order) + band_limit_grid(n, m), kernels.dtype),
            xp.zeros((block, out_h, out_w // 2 + 1), kernels.dtype))
    else:
        evaluate, scratch = _direct_chunk, ()
    for start in range(0, batch, block):
        stop = min(start + block, batch)
        image = evaluate(xp.asarray(masks[start:stop]), kernels, out_h, out_w,
                         xp, *scratch)
        xp.to_host(image, out=out[start:stop])
    return out
