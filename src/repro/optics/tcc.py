"""Transmission cross-coefficient (TCC) computation — Hopkins' Eq. (2).

The TCC couples pairs of mask diffraction orders through the source and the
pupil.  We compute it on the discrete frequency window that the optical
system can actually transmit (the ``n x m`` kernel window of Eq. (10)), which
yields an ``(n*m, n*m)`` Hermitian matrix amenable to the SOCS
eigendecomposition in :mod:`repro.optics.socs`.  The matrix is a Gram
product of one shifted-pupil stack (:func:`shifted_pupil_stack`); the
production kernel bank is built from that stack directly and never forms it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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


def shifted_pupil_stack(source: Source, pupil: Pupil, kernel_shape: Tuple[int, int],
                        field_size_nm: float, wavelength_nm: float,
                        numerical_aperture: float
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """The factors of Eq. (2): ``T = A diag(J) A^H``.

    Row ``p`` of ``A`` (``(n*m, n*m)``) is the pupil shifted to kernel
    frequency ``f_p`` and sampled at every source point, ``H(s + f_p)``;
    ``J`` (``(n*m,)``) is the normalised source intensity at those points.
    Both the TCC (:func:`compute_tcc`) and the SOCS kernels built without it
    (:func:`repro.optics.socs.socs_kernels`) start here, so the pupil-offset
    convention is written once.

    Parameters
    ----------
    kernel_shape:
        ``(n, m)`` window size, typically from
        :func:`repro.optics.kernel_dims.kernel_dimensions`.
    field_size_nm:
        Physical tile extent; sets the frequency sampling pitch.

    The source is sampled on the kernel window itself, which keeps the
    source and mask spectra on the same lattice.
    """
    n, m = kernel_shape
    if n <= 0 or m <= 0:
        raise ValueError("kernel_shape entries must be positive")

    source_grid = make_grid(n, m, field_size_nm, wavelength_nm, numerical_aperture)
    weights = source.normalized_intensity(source_grid)

    # The pupil must be evaluated at source + kernel offsets, so sample it on
    # an extended window covering both.
    pupil_grid = make_grid(2 * n, 2 * m, field_size_nm, wavelength_nm, numerical_aperture)
    pupil_map = pupil.transfer(pupil_grid)

    rows = centred_indices(n)
    cols = centred_indices(m)
    order = n * m

    # Pre-compute H(s + f) for every kernel frequency f as an (order, n, m) stack.
    shifted = np.empty((order, n, m), dtype=np.complex128)
    flat_index = 0
    for row_offset in rows:
        for col_offset in cols:
            shifted[flat_index] = _offset_window(pupil_map, int(row_offset), int(col_offset), n, m)
            flat_index += 1
    return shifted.reshape(order, -1), weights.reshape(-1)


def compute_tcc(source: Source, pupil: Pupil, kernel_shape: Tuple[int, int],
                field_size_nm: float, wavelength_nm: float,
                numerical_aperture: float) -> TCCResult:
    """Compute the TCC matrix on the ``kernel_shape`` frequency window.

    The computation discretises Eq. (2): for every source sample ``s`` with
    weight ``J(s)`` the shifted pupils ``H(s + f1)`` and ``H*(s + f2)`` are
    accumulated into ``T[f1, f2]``.  Arguments as for
    :func:`shifted_pupil_stack`.
    """
    shifted, weights = shifted_pupil_stack(
        source, pupil, kernel_shape, field_size_nm, wavelength_nm,
        numerical_aperture)

    # T[p, q] = sum_s J(s) * H(s + f_p) * conj(H(s + f_q))
    matrix = (shifted * weights[None, :]) @ np.conj(shifted.T)

    # Enforce exact Hermitian symmetry against round-off.
    matrix = 0.5 * (matrix + np.conj(matrix.T))
    return TCCResult(matrix=matrix, kernel_shape=tuple(kernel_shape),
                     grid=make_grid(*kernel_shape, field_size_nm, wavelength_nm,
                                    numerical_aperture))
