"""Rigorous partially-coherent imaging by direct Abbe source-point summation.

This is the slow reference path: the aerial intensity is accumulated source
point by source point,

    I(x) = sum_s J(s) | IFFT( H(f + s) * F(M)(f) ) |^2 ,

which is mathematically identical to the Hopkins/TCC formulation but does not
require the TCC matrix.  It is used (a) to validate the TCC + SOCS pipeline
in the tests and (b) as the "traditional lithography simulator" timed in the
Fig. 5 throughput comparison.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend import FFTBackend, get_backend
from .grid import centred_indices, make_grid
from .pupil import Pupil
from .source import Source


def _shift_map(values: np.ndarray, row_shift: int, col_shift: int) -> np.ndarray:
    """Shift a centred map by integer frequency indices, zero-filling the border."""
    height, width = values.shape
    out = np.zeros_like(values)
    src_rows = slice(max(0, row_shift), min(height, height + row_shift))
    dst_rows = slice(max(0, -row_shift), min(height, height - row_shift))
    src_cols = slice(max(0, col_shift), min(width, width + col_shift))
    dst_cols = slice(max(0, -col_shift), min(width, width - col_shift))
    out[dst_rows, dst_cols] = values[src_rows, src_cols]
    return out


def abbe_aerial(mask: np.ndarray, source: Source, pupil: Pupil,
                field_size_nm: float, wavelength_nm: float,
                numerical_aperture: float,
                source_grid_size: Optional[int] = None,
                backend: Optional[FFTBackend] = None) -> np.ndarray:
    """Aerial image of ``mask`` by direct Abbe summation over source points.

    Parameters
    ----------
    mask:
        Real 2-D mask image.
    source_grid_size:
        Number of samples per axis of the source sampling window.  Defaults to
        the number of frequency samples falling inside twice the pupil
        cut-off, which matches the lattice used for the TCC computation.
    backend:
        FFT backend for the per-source-point inverse transforms; ``None``
        is :func:`~repro.backend.get_backend`'s.
    """
    backend = backend or get_backend()
    if mask.ndim != 2:
        raise ValueError("mask must be a 2-D image")
    height, width = mask.shape

    if source_grid_size is None:
        # One lattice point per mask-spectrum sample inside |f| <= 2 NA / lambda.
        cutoff_index = int(np.floor(field_size_nm * 2.0 * numerical_aperture / wavelength_nm))
        source_grid_size = 2 * cutoff_index + 1
        source_grid_size = min(source_grid_size, min(height, width))

    source_grid = make_grid(source_grid_size, source_grid_size, field_size_nm,
                            wavelength_nm, numerical_aperture)
    weights = source.normalized_intensity(source_grid)

    mask_grid = make_grid(height, width, field_size_nm, wavelength_nm, numerical_aperture)
    pupil_map = pupil.transfer(mask_grid)

    spectrum = np.fft.fftshift(backend.fft2(mask, norm="ortho"))

    rows = centred_indices(source_grid_size)
    cols = centred_indices(source_grid_size)
    intensity = np.zeros((height, width))
    for i, row_offset in enumerate(rows):
        for j, col_offset in enumerate(cols):
            weight = weights[i, j]
            if weight <= 0:
                continue
            # H(f + s): shift the pupil by -s in the centred index space.
            shifted_pupil = _shift_map(pupil_map, int(row_offset), int(col_offset))
            field = backend.ifft2(np.fft.ifftshift(shifted_pupil * spectrum),
                                  norm="ortho")
            intensity += weight * np.abs(field) ** 2
    return intensity
