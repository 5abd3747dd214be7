"""Optical-kernel dimension design from the physical resolution limit (Eq. (10)).

The smallest pitch the projector can print places the first diffraction order
at the edge of the NA-limited pupil; consequently the aerial-image spectrum is
band-limited to ``|f| <= 2 NA / lambda`` and the TCC kernel window only needs

    m = floor(W_nm * 2 * NA / lambda) * 2 + 1

frequency samples per axis (W_nm is the physical tile width).  The paper
states Eq. (10) for a 1 nm pixel pitch; the functions here generalise it to an
arbitrary pitch so the same law applies to the down-scaled tiles used in this
reproduction.
"""

from __future__ import annotations

from typing import Tuple


def kernel_half_width(extent_nm: float, wavelength_nm: float = 193.0,
                      numerical_aperture: float = 1.35) -> int:
    """Number of frequency samples between DC and the intensity cut-off ``2 NA / lambda``."""
    if extent_nm <= 0:
        raise ValueError("extent_nm must be positive")
    if wavelength_nm <= 0 or numerical_aperture <= 0:
        raise ValueError("wavelength and NA must be positive")
    return int(extent_nm * 2.0 * numerical_aperture / wavelength_nm)


def kernel_dimensions(width_px: int, height_px: int, wavelength_nm: float = 193.0,
                      numerical_aperture: float = 1.35,
                      pixel_size_nm: float = 1.0) -> Tuple[int, int]:
    """Kernel window ``(n, m)`` = (rows, cols) from Eq. (10), generalised to any pixel pitch.

    Returns
    -------
    (n, m):
        ``n`` frequency rows and ``m`` frequency columns; both odd so the DC
        component sits exactly at the centre sample.
    """
    if width_px <= 0 or height_px <= 0:
        raise ValueError("tile dimensions must be positive")
    if pixel_size_nm <= 0:
        raise ValueError("pixel_size_nm must be positive")
    width_nm = width_px * pixel_size_nm
    height_nm = height_px * pixel_size_nm
    m = kernel_half_width(width_nm, wavelength_nm, numerical_aperture) * 2 + 1
    n = kernel_half_width(height_nm, wavelength_nm, numerical_aperture) * 2 + 1
    # The kernel window can never exceed the available spectrum samples.
    m = min(m, width_px)
    n = min(n, height_px)
    return n, m


def resolution_nm(wavelength_nm: float = 193.0, numerical_aperture: float = 1.35,
                  k1: float = 0.5) -> float:
    """Rayleigh resolution element ``R = k1 * lambda / NA`` (line or space width)."""
    if numerical_aperture <= 0:
        raise ValueError("numerical aperture must be positive")
    return k1 * wavelength_nm / numerical_aperture


def suggest_kernel_order(kernel_shape: Tuple[int, int], max_order: int = 60) -> int:
    """Default number of retained SOCS orders ``r`` (paper uses r < 60).

    A small fraction of the window size captures essentially all the TCC
    energy because the eigenvalues decay rapidly; we default to roughly one
    order per 10 window samples, clamped to ``[4, max_order]``.
    """
    n, m = kernel_shape
    guess = max(4, (n * m) // 10)
    return int(min(guess, max_order))
