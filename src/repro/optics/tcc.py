"""Transmission cross-coefficient (TCC) computation — Hopkins' Eq. (2).

The TCC couples pairs of mask diffraction orders through the source and the
pupil.  We compute it on the discrete frequency window that the optical
system can actually transmit (the ``n x m`` kernel window of Eq. (10)), which
yields an ``(n*m, n*m)`` Hermitian matrix amenable to the SOCS
eigendecomposition in :mod:`repro.optics.socs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .grid import FrequencyGrid, centred_indices, make_grid
from .pupil import Pupil
from .source import Source


@dataclass(frozen=True)
class TCCResult:
    """Dense TCC matrix together with the frequency window it is sampled on."""

    matrix: np.ndarray          # (n*m, n*m), Hermitian
    kernel_shape: Tuple[int, int]   # (n, m)
    grid: FrequencyGrid

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


def _offset_window(values: np.ndarray, row_offset: int, col_offset: int,
                   height: int, width: int) -> np.ndarray:
    """Extract an ``height x width`` window of ``values`` shifted by the given offsets.

    ``values`` is a larger centred map (the pupil sampled on an extended
    grid); offsets are in integer frequency-index units.  Out-of-range samples
    are zero, matching a pupil that transmits nothing beyond its support.
    """
    full_h, full_w = values.shape
    top = full_h // 2 - height // 2 + row_offset
    left = full_w // 2 - width // 2 + col_offset
    window = np.zeros((height, width), dtype=values.dtype)
    src_top, src_left = max(top, 0), max(left, 0)
    src_bottom, src_right = min(top + height, full_h), min(left + width, full_w)
    if src_bottom <= src_top or src_right <= src_left:
        return window
    dst_top, dst_left = src_top - top, src_left - left
    window[dst_top:dst_top + (src_bottom - src_top),
           dst_left:dst_left + (src_right - src_left)] = (
        values[src_top:src_bottom, src_left:src_right])
    return window


def compute_tcc(source: Source, pupil: Pupil, kernel_shape: Tuple[int, int],
                field_size_nm: float, wavelength_nm: float,
                numerical_aperture: float,
                source_shape: Optional[Tuple[int, int]] = None) -> TCCResult:
    """Compute the TCC matrix on the ``kernel_shape`` frequency window.

    The computation discretises Eq. (2): for every source sample ``s`` with
    weight ``J(s)`` the shifted pupils ``H(s + f1)`` and ``H*(s + f2)`` are
    accumulated into ``T[f1, f2]``.

    Parameters
    ----------
    kernel_shape:
        ``(n, m)`` window size, typically from
        :func:`repro.optics.kernel_dims.kernel_dimensions`.
    field_size_nm:
        Physical tile extent; sets the frequency sampling pitch.
    source_shape:
        Resolution of the source sampling grid.  Defaults to the kernel
        window, which keeps the source and mask spectra on the same lattice.
    """
    n, m = kernel_shape
    if n <= 0 or m <= 0:
        raise ValueError("kernel_shape entries must be positive")
    if source_shape is None:
        source_shape = kernel_shape
    sn, sm = source_shape

    source_grid = make_grid(sn, sm, field_size_nm, wavelength_nm, numerical_aperture)
    weights = source.normalized_intensity(source_grid)

    # The pupil must be evaluated at source + kernel offsets, so sample it on
    # an extended window covering both.
    ext_h, ext_w = sn + n, sm + m
    pupil_grid = make_grid(ext_h, ext_w, field_size_nm, wavelength_nm, numerical_aperture)
    pupil_map = pupil.transfer(pupil_grid)

    rows = centred_indices(n)
    cols = centred_indices(m)
    order = n * m

    # Pre-compute H(s + f) for every kernel frequency f as an (order, sn, sm) stack.
    shifted = np.empty((order, sn, sm), dtype=np.complex128)
    flat_index = 0
    for row_offset in rows:
        for col_offset in cols:
            shifted[flat_index] = _offset_window(pupil_map, int(row_offset), int(col_offset), sn, sm)
            flat_index += 1

    # T[p, q] = sum_s J(s) * H(s + f_p) * conj(H(s + f_q))
    weighted = shifted * weights[None, :, :]
    flat_weighted = weighted.reshape(order, -1)
    flat_shifted = shifted.reshape(order, -1)
    matrix = flat_weighted @ np.conj(flat_shifted.T)

    # Enforce exact Hermitian symmetry against round-off.
    matrix = 0.5 * (matrix + np.conj(matrix.T))
    return TCCResult(matrix=matrix, kernel_shape=(n, m), grid=source_grid)


def tcc_diagonal(result: TCCResult) -> np.ndarray:
    """Diagonal of the TCC reshaped to the kernel window (useful for sanity checks)."""
    n, m = result.kernel_shape
    return np.real(np.diag(result.matrix)).reshape(n, m)
