"""Spatial-frequency grid helpers shared by source, pupil and TCC computations.

Conventions
-----------
A mask tile is an ``N x N`` pixel image with pixel pitch ``pixel_size_nm``.
Its discrete Fourier transform samples spatial frequencies ``f_k = k / (N *
pixel_size_nm)`` cycles/nm for integer ``k``.  Throughout the optics package
frequencies are normalised by the pupil cut-off ``NA / wavelength`` so that
the pupil support is the unit disk and a conventional partially-coherent
source of factor ``sigma`` fills the disk of radius ``sigma``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class FrequencyGrid:
    """Normalised frequency coordinates of an ``height x width`` spectrum window.

    Attributes
    ----------
    fx, fy:
        2-D arrays of frequencies normalised by ``NA / wavelength``; the DC
        component sits at the centre index ``(height // 2, width // 2)``.
    """

    fx: np.ndarray
    fy: np.ndarray
    pixel_size_nm: float
    wavelength_nm: float
    numerical_aperture: float

    @property
    def shape(self) -> Tuple[int, int]:
        return self.fx.shape

    @property
    def radius(self) -> np.ndarray:
        """Normalised radial frequency ``sqrt(fx^2 + fy^2)``."""
        return np.hypot(self.fx, self.fy)


def centred_indices(size: int) -> np.ndarray:
    """Integer frequency indices ``-size//2 ... size - size//2 - 1`` with DC at ``size//2``."""
    return np.arange(size) - size // 2


def make_grid(height: int, width: int, field_size_nm: float, wavelength_nm: float,
              numerical_aperture: float, pixel_size_nm: float = 1.0) -> FrequencyGrid:
    """Build the normalised frequency grid of an ``height x width`` spectrum window.

    Parameters
    ----------
    height, width:
        Number of frequency samples retained along each axis.
    field_size_nm:
        Physical extent of the mask tile (determines the frequency spacing
        ``1 / field_size_nm``).
    """
    if field_size_nm <= 0:
        raise ValueError("field_size_nm must be positive")
    cutoff = numerical_aperture / wavelength_nm
    spacing = 1.0 / field_size_nm
    ky = centred_indices(height) * spacing / cutoff
    kx = centred_indices(width) * spacing / cutoff
    fx, fy = np.meshgrid(kx, ky)
    return FrequencyGrid(fx=fx, fy=fy, pixel_size_nm=pixel_size_nm,
                         wavelength_nm=wavelength_nm,
                         numerical_aperture=numerical_aperture)


def embed_centre_unshifted(block: np.ndarray, height: int, width: int,
                           out=None) -> np.ndarray:
    """Embed a centred-DC ``block`` directly into an *unshifted* spectrum layout.

    Bit-for-bit equal to zero-padding ``block`` at the centre of a
    ``(height, width)`` array and then ``ifftshift``-ing it (the textbook
    spelling, ``tests/reference.py::embed_centre``) — the centred frequency
    ``c`` lands at unshifted index ``c % size`` — but writes the four
    quadrants straight to their corners instead of materialising the centred
    embedding and then moving every sample of the full-size array a second
    time.  This removes the per-chunk full-size ``ifftshift`` from the
    batched imaging hot loop.

    ``out`` is a reusable target instead of a fresh zero array: zero outside
    the four quadrants, which every embed of an equally shaped ``block``
    overwrites completely.
    """
    bh, bw = block.shape[-2], block.shape[-1]
    if bh > height or bw > width:
        raise ValueError(f"block ({bh}, {bw}) larger than target ({height}, {width})")
    if out is None:
        out = np.zeros(block.shape[:-2] + (height, width), dtype=block.dtype)
    # Block row i holds centred frequency i - bh//2: the first bh//2 rows are
    # negative frequencies (wrap to the bottom), the rest non-negative.
    neg_h, neg_w = bh // 2, bw // 2
    pos_h, pos_w = bh - neg_h, bw - neg_w
    out[..., :pos_h, :pos_w] = block[..., neg_h:, neg_w:]
    out[..., :pos_h, width - neg_w:] = block[..., neg_h:, :neg_w]
    out[..., height - neg_h:, :pos_w] = block[..., :neg_h, neg_w:]
    out[..., height - neg_h:, width - neg_w:] = block[..., :neg_h, :neg_w]
    return out


def crop_centre(array: np.ndarray, height: int, width: int) -> np.ndarray:
    """Crop the central ``height x width`` window of the last two axes."""
    full_h, full_w = array.shape[-2], array.shape[-1]
    if height > full_h or width > full_w:
        raise ValueError(f"crop ({height}, {width}) larger than input ({full_h}, {full_w})")
    # Keep the DC sample (index size//2 after fftshift) at the window centre.
    top = full_h // 2 - height // 2
    left = full_w // 2 - width // 2
    return array[..., top:top + height, left:left + width]
