"""Lithography-optics substrate: Hopkins imaging, TCC, SOCS, resist models.

This package is the golden simulator of the reproduction (the role played by
"Lithosim" and Mentor Calibre in the paper): it turns mask tiles into aerial
and resist images through a physically-grounded partially-coherent imaging
model with λ = 193 nm and NA = 1.35 defaults.
"""

from .aerial import mask_spectrum
from .grid import FrequencyGrid, centred_indices, crop_centre, make_grid
from .hopkins import abbe_aerial
from .process_window import FocusExposurePoint, ProcessWindowResult, measure_cd
from .pupil import Pupil
from .resist import ConstantThresholdResist
from .simulator import LithographySimulator, OpticsConfig, calibre_like_engine, lithosim_engine
from .socs import SOCSKernels, decompose_tcc, truncation_error_bound
from .source import (
    AnnularSource,
    CircularSource,
    DipoleSource,
    PixelatedSource,
    QuadrupoleSource,
    Source,
    make_source,
)
from .tcc import TCCResult, compute_tcc

__all__ = [
    "FrequencyGrid", "make_grid", "centred_indices", "crop_centre",
    "Source", "CircularSource", "AnnularSource", "DipoleSource", "QuadrupoleSource",
    "PixelatedSource", "make_source",
    "Pupil",
    "TCCResult", "compute_tcc",
    "SOCSKernels", "decompose_tcc", "truncation_error_bound",
    "mask_spectrum", "abbe_aerial",
    "ConstantThresholdResist",
    "LithographySimulator", "OpticsConfig", "lithosim_engine", "calibre_like_engine",
    "ProcessWindowResult", "FocusExposurePoint",
    "measure_cd",
]
