"""Aerial-image formation from SOCS kernels (Eq. (4) / Eq. (9)).

Three paths are provided:

* :func:`aerial_from_kernels` — the single-tile reference path used by the
  golden simulator and pinned by the equivalence regression tests,
* :func:`aerial_batch` — the broadcast batched evaluation (one FFT pipeline
  for a whole ``(B, H, W)`` stack); the chunked, band-limited production
  variant lives in :mod:`repro.engine.batched`, and
* helper utilities shared with the differentiable training graph in
  :mod:`repro.core.nitho`.

Every transform routes through the pluggable compute backend
(:mod:`repro.backend`): masks are real, so half the spectrum is redundant —
mask batches take the ``rfft2`` half-spectrum transform and the centred crop
is gathered straight from the half spectrum via Hermitian symmetry; no
full-size ``fftshift`` ever materialises.  The textbook full-spectrum
expression lives test-side (``tests/reference.py``) as the oracle this path
is property-tested against.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..backend import FFTBackend, get_backend
from .grid import embed_centre_unshifted


def mask_spectrum(mask: np.ndarray, kernel_shape: Optional[Tuple[int, int]] = None,
                  backend: Optional[FFTBackend] = None) -> np.ndarray:
    """Centred 2-D spectrum of a real mask, optionally cropped to the kernel window.

    Mirrors lines 6-7 of Algorithm 1: ``fftshift(fft2(M))`` followed by a
    central crop to the optical-kernel dimensions — computed from the
    ``rfft2`` half spectrum, which agrees with that expression to ~1e-12 in
    float64 (the half-spectrum values are the same pocketfft sums gathered
    via Hermitian symmetry).  Accepts a single mask ``(H, W)`` or a batch
    ``(..., H, W)``; the transform always acts on the last two axes.  A
    complex mask raises ``ValueError``.

    ``backend`` is the FFT backend to transform through; ``None`` resolves
    the default (``REPRO_FFT_BACKEND`` / auto).

    Device residency: the transform always goes through the backend; the
    array ops around it (allocation, Hermitian gather) run in the backend's
    namespace when the mask already lives on its device — the spectrum
    comes back device-resident and nothing crosses the host boundary — and
    in numpy otherwise, so a host mask handed to a device backend keeps host
    semantics and pays one counted round trip (index arrays are host-side
    metadata either way).
    """
    backend = backend or get_backend()
    xp = backend if backend.is_device_array(mask) else np
    mask = xp.asarray(mask)
    if np.issubdtype(mask.dtype, np.complexfloating):
        raise ValueError("mask_spectrum requires a real-valued mask")

    height, width = mask.shape[-2], mask.shape[-1]
    n, m = kernel_shape if kernel_shape is not None else (height, width)
    if n > height or m > width:
        raise ValueError(f"crop ({n}, {m}) larger than input ({height}, {width})")

    half = backend.rfft2(mask, norm="ortho")  # (..., H, W//2 + 1)
    # Gather the centred n x m window straight from the half spectrum: column
    # frequency c >= -(m//2); non-negative c reads the stored coefficient,
    # negative c its Hermitian mirror conj(F[-row, -col]).
    rows = (np.arange(n) - n // 2) % height
    cols = (np.arange(m) - m // 2) % width
    out = xp.empty(mask.shape[:-2] + (n, m), dtype=half.dtype)
    direct = cols <= width // 2
    out[..., :, direct] = half[..., rows[:, None], cols[direct][None, :]]
    if not direct.all():
        out[..., :, ~direct] = xp.conj(
            half[..., ((-rows) % height)[:, None], (width - cols[~direct])[None, :]])
    return out


def aerial_from_kernels(mask: np.ndarray, kernels: np.ndarray,
                        output_shape: Optional[Tuple[int, int]] = None,
                        backend: Optional[FFTBackend] = None) -> np.ndarray:
    """Aerial image ``sum_i |IFFT(K_i * F(M))|^2`` at full mask resolution.

    Parameters
    ----------
    mask:
        Real 2-D mask image (``H x W``).
    kernels:
        Complex array ``(r, n, m)`` of frequency-domain kernels (centred DC),
        each already scaled by ``sqrt(eigenvalue)``.
    output_shape:
        Resolution of the returned aerial image; defaults to the mask shape.
        The band-limited product is zero-embedded into this size before the
        inverse FFT, which is an exact (sinc) interpolation.
    backend:
        FFT backend; ``None`` resolves the default.
    """
    if mask.ndim != 2:
        raise ValueError("mask must be a 2-D image")
    if kernels.ndim != 3:
        raise ValueError("kernels must have shape (r, n, m)")
    backend = backend or get_backend()
    height, width = mask.shape if output_shape is None else output_shape
    n, m = kernels.shape[-2], kernels.shape[-1]

    spectrum = mask_spectrum(mask, (n, m), backend=backend)
    products = kernels * spectrum[None, :, :]
    embedded = embed_centre_unshifted(products, height, width)
    fields = backend.ifft2(embedded, norm="ortho")
    return np.sum(np.abs(fields) ** 2, axis=0)


def aerial_batch(masks: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Aerial images of a mask batch ``(B, H, W)`` in one broadcast FFT pipeline.

    This is the genuinely vectorised path (the seed version looped the
    single-tile computation in Python): one batched ``fft2`` produces every
    spectrum, one broadcast multiply forms the ``(B, r, n, m)`` kernel
    products, and one batched ``ifft2`` plus a reduction over the kernel axis
    yields the intensities.  The numerics live in
    :func:`repro.engine.batched.batched_aerial_from_kernels`, which also
    offers the chunked, band-limited production variant.
    """
    from ..engine.batched import batched_aerial_from_kernels  # deferred: engine imports optics

    masks = np.asarray(masks)
    if masks.ndim != 3:
        raise ValueError("masks must have shape (B, H, W)")
    if kernels.ndim != 3:
        raise ValueError("kernels must have shape (r, n, m)")
    return batched_aerial_from_kernels(masks, kernels, band_limited=False)


def normalize_aerial(aerial: np.ndarray, clear_field_intensity: float) -> np.ndarray:
    """Scale an aerial image so a fully clear mask images to intensity 1.0."""
    if clear_field_intensity <= 0:
        raise ValueError("clear_field_intensity must be positive")
    return aerial / clear_field_intensity


def clear_field_intensity(kernels: np.ndarray, height: int, width: int) -> float:
    """Peak intensity produced by an all-ones (fully transparent) mask.

    Used to express aerial images in dimensionless exposure units so a single
    resist threshold applies across tiles.
    """
    clear = np.ones((height, width))
    aerial = aerial_from_kernels(clear, kernels)
    return float(aerial.max())
