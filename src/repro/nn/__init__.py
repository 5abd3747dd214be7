"""Complex-valued neural-network substrate (autograd, layers, optimizers).

This package substitutes for PyTorch's complex-tensor stack.  The public
surface mirrors the familiar ``torch`` / ``torch.nn`` split:

* :mod:`repro.nn.tensor` / :mod:`repro.nn.functional` — autograd array type and ops,
* :mod:`repro.nn.layers`, :mod:`repro.nn.conv`, :mod:`repro.nn.spectral` — modules,
* :mod:`repro.nn.optim` — optimizers and LR schedules,
* :mod:`repro.nn.serialization` — ``.npz`` checkpoints.
"""

from . import functional
from .conv import AvgPool2d, Conv2d, Upsample2x, avg_pool2d, conv2d, upsample2x
from .init import complex_glorot, glorot_uniform, he_uniform
from .layers import (
    BatchNorm2d,
    CLinear,
    CReLU,
    Dropout,
    LayerNorm,
    Linear,
    ModReLU,
    Module,
    ReLU,
    Sequential,
    Tanh,
)
from .optim import SGD, Adam, CosineLR, Optimizer, StepLR, clip_grad_norm
from .serialization import load_module, save_module
from .spectral import SpectralConv2d, spectral_conv2d
from .tensor import Tensor, as_tensor, ones, tensor, zeros

__all__ = [
    "Tensor", "tensor", "as_tensor", "zeros", "ones", "functional",
    "Module", "Linear", "CLinear", "ReLU", "CReLU", "ModReLU",
    "Tanh", "Sequential", "Dropout", "LayerNorm", "BatchNorm2d",
    "Conv2d", "Upsample2x", "AvgPool2d", "conv2d", "upsample2x", "avg_pool2d",
    "SpectralConv2d", "spectral_conv2d",
    "SGD", "Adam", "Optimizer", "StepLR", "CosineLR", "clip_grad_norm",
    "save_module", "load_module",
    "glorot_uniform", "he_uniform", "complex_glorot",
]
