"""Neural-network modules: real and complex linear layers, activations, containers.

The complex building blocks (:class:`CLinear`, :class:`CReLU`) implement
Section III-B1 of the paper; the real-valued layers support the TEMPO / DOINN
baseline models.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor


class Module:
    """Base class mirroring ``torch.nn.Module`` semantics (parameters, submodules)."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}

    # -- registration ---------------------------------------------------- #
    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        tensor.requires_grad = True
        tensor.name = name
        self._parameters[name] = tensor
        return tensor

    def register_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def __setattr__(self, name, value):
        if isinstance(value, Module):
            object.__getattribute__(self, "_modules")[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -------------------------------------------------------- #
    def parameters(self) -> Iterator[Tensor]:
        for param in self._parameters.values():
            yield param
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- sizing ------------------------------------------------------------ #
    def num_parameters(self) -> int:
        """Total scalar parameter count (complex weights count as two scalars)."""
        total = 0
        for param in self.parameters():
            multiplier = 2 if param.is_complex else 1
            total += param.size * multiplier
        return total

    def size_megabytes(self) -> float:
        """Parameter storage in MB assuming 32-bit scalars (as reported in Table I)."""
        return self.num_parameters() * 4 / (1024 * 1024)

    # -- state dict --------------------------------------------------------- #
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: {param.data.shape} vs {state[name].shape}")
            param.data = state[name].astype(param.data.dtype, copy=True)

    # -- call ---------------------------------------------------------------- #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Real-valued affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Tensor(init.glorot_uniform((in_features, out_features), rng)))
        self.use_bias = bias
        if bias:
            self.bias = self.register_parameter("bias", Tensor(np.zeros(out_features)))

    def forward(self, x: Tensor) -> Tensor:
        out = F.matmul(x, self.weight)
        if self.use_bias:
            out = F.add(out, self.bias)
        return out


class CLinear(Module):
    """Complex-valued affine layer ``o = x W + b`` with ``W, b`` complex (Section III-B1)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Tensor(init.complex_glorot((in_features, out_features), rng)))
        self.use_bias = bias
        if bias:
            self.bias = self.register_parameter(
                "bias", Tensor(np.zeros(out_features, dtype=np.complex128)))

    def forward(self, x: Tensor) -> Tensor:
        out = F.matmul(x, self.weight)
        if self.use_bias:
            out = F.add(out, self.bias)
        return out


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class CReLU(Module):
    """Complex rectified linear unit (Eq. (11))."""

    def forward(self, x: Tensor) -> Tensor:
        return F.crelu(x)


class Sequential(Module):
    """Apply submodules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._ordered: List[Module] = []
        for index, module in enumerate(modules):
            self.register_module(str(index), module)
            self._ordered.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._ordered:
            x = module(x)
        return x
