"""Autograd tensor with first-class complex-number support.

The paper trains a *complex-valued* multilayer perceptron through FFTs and
squared-magnitude operations (Algorithm 1).  PyTorch provides this via its
complex autograd; here we implement the same machinery on top of NumPy.

Gradient convention
-------------------
For a real tensor ``x`` the gradient is the usual ``dL/dx``.  For a complex
tensor ``z = a + ib`` the gradient stored in ``.grad`` is::

    grad(z) = dL/da + i * dL/db   (= 2 * dL/d conj(z), the Wirtinger gradient)

which is exactly the steepest-ascent direction in the underlying real
parameter space, so ``z -= lr * grad`` performs ordinary gradient descent.
Holomorphic operations (addition, multiplication, matmul, FFT, reshaping)
propagate this gradient with ``G_in = G_out * conj(d out / d in)``; the
real/complex boundary operations (``abs2``, ``real``, ``imag``, CReLU, the
loss seed) use the explicit real-component chain rule.  All rules are
verified against numerical differentiation in ``tests/test_nn_autograd.py``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, complex, Sequence]

_REAL_DTYPE = np.float64
_COMPLEX_DTYPE = np.complex128


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` to a float64 or complex128 ndarray."""
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        return arr.astype(_COMPLEX_DTYPE, copy=False)
    return arr.astype(_REAL_DTYPE, copy=False)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast axes so it matches ``shape``.

    NumPy broadcasting expands a smaller operand; the corresponding gradient
    must be summed back over the expanded axes.
    """
    if grad.shape == tuple(shape):
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed array node in a dynamically-built autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> Union[float, complex]:
        return self.data.item()

    # ------------------------------------------------------------------ #
    # autograd driver
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.is_complex:
            grad = grad.astype(_COMPLEX_DTYPE, copy=False)
        else:
            # Gradient of a real tensor must be real even if an upstream op
            # produced a complex intermediate (e.g. a complex product with a
            # real operand).
            if np.iscomplexobj(grad):
                grad = grad.real
            grad = grad.astype(_REAL_DTYPE, copy=False)
        grad = unbroadcast(grad, self.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1.0 and the tensor must then be a real scalar
        (the loss).  The traversal is a reverse topological order over the
        recorded graph.
        """
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            if self.is_complex:
                raise ValueError("backward() must start from a real-valued loss")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad)

        topo: List[Tensor] = []
        visited = set()

        def build(node: Tensor) -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                build(parent)
            topo.append(node)

        build(self)
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # operator sugar (implementations live in functional.py)
    # ------------------------------------------------------------------ #
    def __add__(self, other):  # noqa: D105
        from . import functional as F

        return F.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from . import functional as F

        return F.sub(self, other)

    def __rsub__(self, other):
        from . import functional as F

        return F.sub(other, self)

    def __mul__(self, other):
        from . import functional as F

        return F.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from . import functional as F

        return F.div(self, other)

    def __rtruediv__(self, other):
        from . import functional as F

        return F.div(other, self)

    def __neg__(self):
        from . import functional as F

        return F.neg(self)

    def __matmul__(self, other):
        from . import functional as F

        return F.matmul(self, other)

    def __pow__(self, exponent):
        from . import functional as F

        return F.power(self, exponent)

    def __getitem__(self, index):
        from . import functional as F

        return F.getitem(self, index)

    # ------------------------------------------------------------------ #
    # frequently used methods
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False):
        from . import functional as F

        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from . import functional as F

        return F.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from . import functional as F

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return F.reshape(self, shape)

    def transpose(self, *axes):
        from . import functional as F

        if len(axes) == 0:
            axes = None
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return F.transpose(self, axes)

    @property
    def T(self):
        return self.transpose()

    def conj(self):
        from . import functional as F

        return F.conj(self)

    def real(self):
        from . import functional as F

        return F.real(self)

    def imag(self):
        from . import functional as F

        return F.imag(self)

    def abs(self):
        from . import functional as F

        return F.abs(self)

    def abs2(self):
        from . import functional as F

        return F.abs2(self)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Construct a :class:`Tensor` from array-like data."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False, dtype=_REAL_DTYPE) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False, dtype=_REAL_DTYPE) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def as_tensor(value: Union[Tensor, ArrayLike]) -> Tensor:
    """Pass through tensors, wrap raw arrays as constant tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
