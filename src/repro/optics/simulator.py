"""Facade tying source, pupil, TCC, SOCS and resist into one golden simulator.

``LithographySimulator`` plays the role of the paper's ground-truth engines
("Lithosim" for the ICCAD-2013 data, Mentor Calibre for the ISPD-2019 data):
given a mask tile it produces the golden aerial and resist images that the
learned models are trained against.

Kernel banks are served by the process-wide cache in
:mod:`repro.engine.cache`, so any number of simulators sharing an optics
fingerprint pay exactly once for the bank's build, a thin SVD of the lit
shifted-pupil stack (~30 ms cold, :func:`~repro.optics.socs.socs_kernels`);
the TCC itself is never formed (build one with
:func:`~repro.optics.tcc.compute_tcc`).
Every SOCS image — one tile, a batch, a whole layout
(``simulator.engine.image_layout``) — comes from the simulator's
:class:`~repro.engine.execution.ExecutionEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .hopkins import abbe_aerial
from .kernel_dims import kernel_dimensions
from .pupil import Pupil
from .resist import ConstantThresholdResist
from .socs import SOCSKernels
from .source import AnnularSource, CircularSource, Source


@dataclass(frozen=True)
class OpticsConfig:
    """Imaging-system description shared by the simulator and Nitho.

    The defaults correspond to the paper's setup: ArF immersion lithography
    with ``lambda = 193 nm`` and ``NA = 1.35``.
    """

    wavelength_nm: float = 193.0
    numerical_aperture: float = 1.35
    pixel_size_nm: float = 1.0
    tile_size_px: int = 256
    resist_threshold: float = 0.225
    max_socs_order: Optional[int] = 24
    defocus_nm: float = 0.0

    def __post_init__(self) -> None:
        if self.wavelength_nm <= 0 or self.numerical_aperture <= 0:
            raise ValueError("wavelength and NA must be positive")
        if self.pixel_size_nm <= 0 or self.tile_size_px <= 0:
            raise ValueError("pixel size and tile size must be positive")

    @property
    def field_size_nm(self) -> float:
        """Physical extent of one tile."""
        return self.pixel_size_nm * self.tile_size_px


def default_illumination(config: OpticsConfig, source: Optional[Source] = None,
                         pupil: Optional[Pupil] = None) -> Tuple[Source, Pupil]:
    """``(source, pupil)`` with the golden defaults filled in.

    The one statement of them: annular illumination, typical for the metal /
    via layers targeted by the paper's benchmarks, and an ideal NA-limited
    pupil carrying the configured defocus.
    """
    return (source or AnnularSource(sigma_inner=0.5, sigma_outer=0.8),
            pupil or Pupil(defocus_nm=config.defocus_nm))


class LithographySimulator:
    """Golden partially-coherent imaging engine (Hopkins TCC + SOCS).

    Parameters
    ----------
    config:
        Optical settings (wavelength, NA, pixel pitch, tile size, threshold).
    source, pupil:
        Illuminator and projection pupil; default to
        :func:`default_illumination`.
    """

    def __init__(self, config: Optional[OpticsConfig] = None,
                 source: Optional[Source] = None,
                 pupil: Optional[Pupil] = None):
        self.config = config or OpticsConfig()
        self.source, self.pupil = default_illumination(self.config, source,
                                                       pupil)
        self.resist_model = ConstantThresholdResist(self.config.resist_threshold)
        self._kernels: Optional[SOCSKernels] = None
        self._engine = None

    # ------------------------------------------------------------------ #
    # kernel bank
    # ------------------------------------------------------------------ #
    @property
    def kernel_shape(self) -> Tuple[int, int]:
        """Optical-kernel window size from the resolution limit (Eq. (10))."""
        return kernel_dimensions(
            self.config.tile_size_px, self.config.tile_size_px,
            wavelength_nm=self.config.wavelength_nm,
            numerical_aperture=self.config.numerical_aperture,
            pixel_size_nm=self.config.pixel_size_nm)

    @property
    def kernels(self) -> SOCSKernels:
        """SOCS kernel bank, built at most once per optics fingerprint."""
        if self._kernels is None:
            from ..engine.cache import default_kernel_cache

            self._kernels = default_kernel_cache().get_kernels(
                self.config, self.source, self.pupil)
        return self._kernels

    @property
    def engine(self):
        """The batched :class:`~repro.engine.execution.ExecutionEngine` for these
        optics, its bank served by the process-wide kernel-bank cache."""
        if self._engine is None:
            from ..engine.execution import ExecutionEngine

            self._engine = ExecutionEngine.for_optics(
                self.config, self.source, self.pupil)
        return self._engine

    # ------------------------------------------------------------------ #
    # imaging
    # ------------------------------------------------------------------ #
    def aerial(self, mask: np.ndarray) -> np.ndarray:
        """Golden aerial image of a mask tile (SOCS fast path)."""
        return self.engine.aerial(mask)

    def aerial_rigorous(self, mask: np.ndarray) -> np.ndarray:
        """Aerial image via direct Abbe summation (slow reference path)."""
        self._check_mask(mask)
        return abbe_aerial(mask, self.source, self.pupil,
                           field_size_nm=self.config.field_size_nm,
                           wavelength_nm=self.config.wavelength_nm,
                           numerical_aperture=self.config.numerical_aperture)

    def resist(self, mask: np.ndarray) -> np.ndarray:
        """Golden binary resist image of a mask tile."""
        return self.resist_model.develop(self.aerial(mask))

    def simulate(self, mask: np.ndarray) -> Dict[str, np.ndarray]:
        """Return mask, aerial and resist images for one tile."""
        aerial = self.aerial(mask)
        return {
            "mask": np.asarray(mask, dtype=float),
            "aerial": aerial,
            "resist": self.resist_model.develop(aerial),
        }

    def aerial_batch(self, masks: np.ndarray) -> np.ndarray:
        """Golden aerial images of a tile batch ``(B, H, W)`` in one vectorised pass."""
        return self.engine.aerial_batch(masks)

    def _check_mask(self, mask: np.ndarray) -> None:
        mask = np.asarray(mask)
        if mask.ndim != 2:
            raise ValueError("mask must be a 2-D image")
        expected = (self.config.tile_size_px, self.config.tile_size_px)
        if mask.shape != expected:
            raise ValueError(f"mask shape {mask.shape} does not match configured tile {expected}")


def lithosim_engine(tile_size_px: int = 256, pixel_size_nm: float = 4.0) -> LithographySimulator:
    """Preset mimicking the ICCAD-2013 'Lithosim' engine (conventional circular source)."""
    config = OpticsConfig(tile_size_px=tile_size_px, pixel_size_nm=pixel_size_nm,
                          resist_threshold=0.225)
    return LithographySimulator(config=config, source=CircularSource(sigma=0.6))


def calibre_like_engine(tile_size_px: int = 256, pixel_size_nm: float = 4.0
                        ) -> LithographySimulator:
    """Preset mimicking the commercial engine used for the ISPD-2019 layers (annular source)."""
    config = OpticsConfig(tile_size_px=tile_size_px, pixel_size_nm=pixel_size_nm,
                          resist_threshold=0.225)
    return LithographySimulator(config=config,
                                source=AnnularSource(sigma_inner=0.6, sigma_outer=0.9))
