"""Complex-valued neural-network substrate (autograd, layers, optimizers).

This package substitutes for PyTorch's complex-tensor stack.  The public
surface mirrors the familiar ``torch`` / ``torch.nn`` split:

* :mod:`repro.nn.tensor` / :mod:`repro.nn.functional` — autograd array type and ops,
* :mod:`repro.nn.layers`, :mod:`repro.nn.conv`, :mod:`repro.nn.spectral` — modules,
* :mod:`repro.nn.optim` — optimizers and LR schedules,
* :mod:`repro.nn.serialization` — ``.npz`` checkpoints.
"""

from . import functional
from .conv import Conv2d, conv2d, upsample2x
from .init import complex_glorot, glorot_uniform, he_uniform
from .layers import CLinear, CReLU, Linear, Module, ReLU, Sequential
from .optim import Adam, CosineLR, Optimizer
from .serialization import load_module, save_module
from .spectral import SpectralConv2d, spectral_conv2d
from .tensor import Tensor, as_tensor, ones, tensor, zeros

__all__ = [
    "Tensor", "tensor", "as_tensor", "zeros", "ones", "functional",
    "Module", "Linear", "CLinear", "ReLU", "CReLU", "Sequential",
    "Conv2d", "conv2d", "upsample2x",
    "SpectralConv2d", "spectral_conv2d",
    "Adam", "Optimizer", "CosineLR",
    "save_module", "load_module",
    "glorot_uniform", "he_uniform", "complex_glorot",
]
