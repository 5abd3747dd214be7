"""Nitho core: kernel dimensioning, positional encodings, CMLP and the model itself."""

from ..optics.kernel_dims import (
    kernel_dimensions,
    kernel_half_width,
    resolution_nm,
    suggest_kernel_order,
)
from .cmlp import CMLP, RealMLP
from .encoding import (
    IdentityEncoding,
    NeRFEncoding,
    PositionalEncoding,
    RandomFourierEncoding,
    kernel_coordinates,
    make_encoding,
)
from .inverse import GradientILT, ILTSettings, print_fidelity
from .nitho import NithoConfig, NithoModel
from .trainer import NithoTrainer

__all__ = [
    "CMLP", "RealMLP",
    "PositionalEncoding", "IdentityEncoding", "NeRFEncoding", "RandomFourierEncoding",
    "kernel_coordinates", "make_encoding",
    "kernel_dimensions", "kernel_half_width", "resolution_nm", "suggest_kernel_order",
    "NithoConfig", "NithoModel", "NithoTrainer",
    "GradientILT", "ILTSettings", "print_fidelity",
]
