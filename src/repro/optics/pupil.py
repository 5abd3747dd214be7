"""Projection-lens pupil function ``H`` (Eq. (2)) with defocus and Zernike aberrations.

The pupil is the NA-limited low-pass filter of the projection optics.  Real
scanners add phase errors (defocus, astigmatism, coma ...) which we model with
a small Zernike expansion so the simulator can generate through-focus data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .grid import FrequencyGrid


def _zernike_polynomials(rho: np.ndarray, theta: np.ndarray) -> Dict[int, np.ndarray]:
    """First few Zernike polynomials (Noll indices) on the unit disk."""
    return {
        1: np.ones_like(rho),                                # piston
        2: 2.0 * rho * np.cos(theta),                        # tilt x
        3: 2.0 * rho * np.sin(theta),                        # tilt y
        4: np.sqrt(3.0) * (2.0 * rho ** 2 - 1.0),            # defocus
        5: np.sqrt(6.0) * rho ** 2 * np.sin(2.0 * theta),    # astigmatism 45
        6: np.sqrt(6.0) * rho ** 2 * np.cos(2.0 * theta),    # astigmatism 0
        7: np.sqrt(8.0) * (3.0 * rho ** 3 - 2.0 * rho) * np.sin(theta),   # coma y
        8: np.sqrt(8.0) * (3.0 * rho ** 3 - 2.0 * rho) * np.cos(theta),   # coma x
        9: np.sqrt(8.0) * rho ** 3 * np.sin(3.0 * theta),    # trefoil y
        10: np.sqrt(8.0) * rho ** 3 * np.cos(3.0 * theta),   # trefoil x
        11: np.sqrt(5.0) * (6.0 * rho ** 4 - 6.0 * rho ** 2 + 1.0),       # spherical
    }


@dataclass
class Pupil:
    """NA-limited pupil with optional defocus and Zernike phase aberrations.

    Parameters
    ----------
    defocus_nm:
        Image-plane defocus in nanometres; converted to a quadratic phase
        using the paraxial approximation.
    zernike_coefficients:
        Mapping from Noll index to coefficient in waves (applied as
        ``exp(2 pi i * c * Z_n)``).
    apodization:
        Optional radial amplitude roll-off exponent; 0 keeps a hard-edged pupil.
    """

    defocus_nm: float = 0.0
    zernike_coefficients: Dict[int, float] = field(default_factory=dict)
    apodization: float = 0.0

    def transfer(self, grid: FrequencyGrid) -> np.ndarray:
        """Complex pupil transfer function ``H`` sampled on ``grid``."""
        rho = grid.radius
        inside = rho <= 1.0
        amplitude = inside.astype(float)
        if self.apodization > 0:
            amplitude = amplitude * (1.0 - np.clip(rho, 0.0, 1.0) ** 2) ** (self.apodization / 2.0)

        phase = np.zeros(grid.shape, dtype=float)
        if self.defocus_nm:
            # Paraxial defocus: (2 pi / lambda) * z * (1 - sqrt(1 - (NA * rho)^2))
            na_rho = np.clip(grid.numerical_aperture * rho, 0.0, 0.999999)
            path = 1.0 - np.sqrt(1.0 - na_rho ** 2)
            phase = phase + (2.0 * np.pi / grid.wavelength_nm) * self.defocus_nm * path
        if self.zernike_coefficients:
            theta = np.arctan2(grid.fy, grid.fx)
            basis = _zernike_polynomials(np.clip(rho, 0.0, 1.0), theta)
            for index, coefficient in self.zernike_coefficients.items():
                if index not in basis:
                    raise ValueError(f"unsupported Zernike Noll index {index}")
                phase = phase + 2.0 * np.pi * coefficient * basis[index]
        return amplitude * np.exp(1j * phase) * inside
