"""Centred mask spectra for SOCS imaging (lines 6-7 of Algorithm 1).

This module holds :func:`mask_spectrum` only — the forward transform shared
by the batched SOCS core (:mod:`repro.engine.batched`, the one place
Eq. (4) / Eq. (9) is evaluated numerically) and the differentiable training
graph in :mod:`repro.core.nitho`.

The transform routes through the pluggable compute backend
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
    """
    backend = backend or get_backend()
    mask = np.asarray(mask)
    if np.issubdtype(mask.dtype, np.complexfloating):
        raise ValueError("mask_spectrum requires a real-valued mask")

    height, width = mask.shape[-2], mask.shape[-1]
    n, m = kernel_shape if kernel_shape is not None else (height, width)
    if n > height or m > width:
        raise ValueError(f"crop ({n}, {m}) larger than input ({height}, {width})")

    # Gather the centred n x m window straight from the half spectrum: column
    # frequency c >= -(m//2); non-negative c reads the stored coefficient,
    # negative c its Hermitian mirror conj(F[-row, -col]) — so the window
    # never reads past column m // 2.
    half = backend.rfft2_columns(mask, m // 2 + 1, norm="ortho")
    rows = (np.arange(n) - n // 2) % height
    cols = (np.arange(m) - m // 2) % width
    out = np.empty(mask.shape[:-2] + (n, m), dtype=half.dtype)
    direct = cols <= width // 2
    out[..., :, direct] = half[..., rows[:, None], cols[direct][None, :]]
    if not direct.all():
        out[..., :, ~direct] = np.conj(
            half[..., ((-rows) % height)[:, None], (width - cols[~direct])[None, :]])
    return out
