"""Differentiable operations on :class:`~repro.nn.tensor.Tensor`.

Every function builds a graph node whose backward closure implements the
Wirtinger-calculus chain rule described in :mod:`repro.nn.tensor`.  The FFT
operations use ``norm="ortho"`` so that the adjoint of ``fft2`` is ``ifft2``
and vice versa, which keeps the backward pass a single transform.

SOCS imaging (Eq. (4)) is one node, :func:`socs_intensity`, whose forward is
the production core's field expression.  Its vector-Jacobian product is
closed-form: with fields ``E_bi`` and ``G = dL/dI``, let::

    A_bi = crop_centre(fftshift(fft2_ortho(2 * G_b * E_bi)))     # (n, m)

then ``grad K_i = sum_b conj(S_b) * A_bi`` and
``grad S_b = sum_i conj(K_i) * A_bi`` — the chain rule of ``mul -> embed ->
ifftshift -> ifft2 -> |.|^2 -> sum`` (kept test-side as the oracle).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "add", "sub", "mul", "div", "neg", "matmul", "power", "exp", "log",
    "sum", "mean", "reshape", "transpose", "getitem", "concatenate", "stack",
    "pad2d", "crop_center", "conj", "real", "imag", "abs", "abs2",
    "to_complex", "relu", "leaky_relu", "sigmoid", "tanh", "crelu",
    "fft2", "ifft2", "fftshift2", "ifftshift2", "socs_intensity",
    "mse_loss", "bce_with_logits_loss", "sqrt", "square",
]


def _make(data: np.ndarray, parents: Tuple[Tensor, ...], backward, requires_grad: Optional[bool] = None) -> Tensor:
    if requires_grad is None:
        requires_grad = any(p.requires_grad for p in parents)
    if not requires_grad:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)


# --------------------------------------------------------------------------- #
# arithmetic
# --------------------------------------------------------------------------- #
def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(grad)

    return _make(out_data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(-grad)

    return _make(out_data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(-grad)

    return _make(-a.data, (a,), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * np.conj(b.data))
        if b.requires_grad:
            b._accumulate(grad * np.conj(a.data))

    return _make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad / np.conj(b.data))
        if b.requires_grad:
            b._accumulate(-grad * np.conj(a.data) / np.conj(b.data) ** 2)

    return _make(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            ga = grad @ np.conj(np.swapaxes(b.data, -1, -2))
            a._accumulate(ga)
        if b.requires_grad:
            gb = np.conj(np.swapaxes(a.data, -1, -2)) @ grad
            b._accumulate(gb)

    return _make(out_data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise power with a real constant exponent."""
    a = as_tensor(a)
    out_data = a.data ** exponent

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            local = exponent * a.data ** (exponent - 1)
            a._accumulate(grad * np.conj(local))

    return _make(out_data, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * np.conj(out_data))

    return _make(out_data, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad / np.conj(a.data))

    return _make(out_data, (a,), backward)


def sqrt(a) -> Tensor:
    return power(a, 0.5)


def square(a) -> Tensor:
    return power(a, 2.0)


# --------------------------------------------------------------------------- #
# reductions and shape manipulation
# --------------------------------------------------------------------------- #
def sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(a_mod(ax, a.ndim) for ax in axes):
                g = np.expand_dims(g, ax)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _make(out_data, (a,), backward)


def a_mod(axis: int, ndim: int) -> int:
    return axis % ndim


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[a_mod(ax, a.ndim)] for ax in axes]))
    return sum(a, axis=axis, keepdims=keepdims) * (1.0 / count)


def reshape(a, shape: Tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.reshape(a.shape))

    return _make(out_data, (a,), backward)


def transpose(a, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    a = as_tensor(a)
    out_data = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = tuple(np.argsort(axes))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.transpose(grad, inverse))

    return _make(out_data, (a,), backward)


def getitem(a, index) -> Tensor:
    a = as_tensor(a)
    out_data = a.data[index]

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, grad)
            a._accumulate(full)

    return _make(out_data, (a,), backward)


def concatenate(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                t._accumulate(grad[tuple(slicer)])

    return _make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(np.squeeze(piece, axis=axis))

    return _make(out_data, tuple(tensors), backward)


def pad2d(a, padding: Union[int, Tuple[int, int]]) -> Tensor:
    """Zero-pad the last two axes symmetrically."""
    a = as_tensor(a)
    if isinstance(padding, int):
        ph = pw = padding
    else:
        ph, pw = padding
    pad_spec = [(0, 0)] * (a.ndim - 2) + [(ph, ph), (pw, pw)]
    out_data = np.pad(a.data, pad_spec)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            slicer = [slice(None)] * (a.ndim - 2)
            slicer += [slice(ph, grad.shape[-2] - ph), slice(pw, grad.shape[-1] - pw)]
            a._accumulate(grad[tuple(slicer)])

    return _make(out_data, (a,), backward)


def crop_center(a, height: int, width: int) -> Tensor:
    """Crop the central ``height x width`` window of the last two axes.

    This mirrors line 7 of Algorithm 1 where the mask spectrum is cropped to
    the optical-kernel dimensions.
    """
    a = as_tensor(a)
    full_h, full_w = a.shape[-2], a.shape[-1]
    if height > full_h or width > full_w:
        raise ValueError(f"crop ({height}, {width}) larger than input ({full_h}, {full_w})")
    # DC-preserving crop: keep the fftshift centre (index size//2) aligned.
    top = full_h // 2 - height // 2
    left = full_w // 2 - width // 2
    slicer = (Ellipsis, slice(top, top + height), slice(left, left + width))
    out_data = a.data[slicer]

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            full[slicer] = grad
            a._accumulate(full)

    return _make(out_data, (a,), backward)


# --------------------------------------------------------------------------- #
# complex structure
# --------------------------------------------------------------------------- #
def conj(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.conj(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.conj(grad))

    return _make(out_data, (a,), backward)


def real(a) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.real.copy()

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.astype(a.dtype))

    return _make(out_data, (a,), backward)


def imag(a) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.imag.copy()

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(1j * grad)

    return _make(out_data, (a,), backward)


def abs2(a) -> Tensor:
    """Squared magnitude ``|z|^2``; real-valued output.

    ``np.abs(z) ** 2``, as :func:`socs_intensity` forms it, so an op chain
    through here and :func:`sum` rounds like that node also on truly
    complex fields (a packed kernel pair's).  The batched core sums the
    squared parts in another order and differs at rounding level; no
    elementwise op rounds like it."""
    a = as_tensor(a)
    out_data = np.abs(a.data) ** 2

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(2.0 * grad * a.data)

    return _make(out_data, (a,), backward)


def abs(a) -> Tensor:  # noqa: A001 - mirrors numpy naming
    a = as_tensor(a)
    magnitude = np.abs(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            safe = np.where(magnitude == 0.0, 1.0, magnitude)
            if a.is_complex:
                a._accumulate(grad * a.data / safe)
            else:
                a._accumulate(grad * np.sign(a.data))

    return _make(magnitude, (a,), backward)


def to_complex(real_part, imag_part=None) -> Tensor:
    """Build a complex tensor ``real + i * imag`` from real tensors."""
    real_part = as_tensor(real_part)
    if imag_part is None:
        imag_part = Tensor(np.zeros_like(real_part.data))
    imag_part = as_tensor(imag_part)
    out_data = real_part.data + 1j * imag_part.data

    def backward(grad: np.ndarray) -> None:
        if real_part.requires_grad:
            real_part._accumulate(grad.real)
        if imag_part.requires_grad:
            imag_part._accumulate(grad.imag)

    return _make(out_data, (real_part, imag_part), backward)


# --------------------------------------------------------------------------- #
# activations
# --------------------------------------------------------------------------- #
def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    out_data = a.data * mask

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask)

    return _make(out_data, (a,), backward)


def leaky_relu(a, negative_slope: float = 0.2) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0
    scale = np.where(mask, 1.0, negative_slope)
    out_data = a.data * scale

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * scale)

    return _make(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * (1.0 - out_data ** 2))

    return _make(out_data, (a,), backward)


def crelu(a) -> Tensor:
    """Complex ReLU (Eq. (11)): ReLU applied separately to real and imaginary parts."""
    a = as_tensor(a)
    re, im = a.data.real, a.data.imag
    mask_re = re > 0
    mask_im = im > 0
    out_data = re * mask_re + 1j * (im * mask_im)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.real * mask_re + 1j * (grad.imag * mask_im))

    return _make(out_data, (a,), backward)


# --------------------------------------------------------------------------- #
# Fourier transforms (orthonormal so the adjoint equals the inverse)
# --------------------------------------------------------------------------- #
def fft2(a) -> Tensor:
    from ..backend import get_backend  # deferred: keep nn importable standalone

    backend = get_backend()
    a = as_tensor(a)
    out_data = backend.fft2(a.data, norm="ortho")

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(backend.ifft2(grad, norm="ortho"))

    return _make(out_data, (a,), backward)


def ifft2(a) -> Tensor:
    from ..backend import get_backend  # deferred: keep nn importable standalone

    backend = get_backend()
    a = as_tensor(a)
    out_data = backend.ifft2(a.data, norm="ortho")

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(backend.fft2(grad, norm="ortho"))

    return _make(out_data, (a,), backward)


def fftshift2(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.fft.fftshift(a.data, axes=(-2, -1))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.fft.ifftshift(grad, axes=(-2, -1)))

    return _make(out_data, (a,), backward)


def ifftshift2(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.fft.ifftshift(a.data, axes=(-2, -1))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.fft.fftshift(grad, axes=(-2, -1)))

    return _make(out_data, (a,), backward)


# --------------------------------------------------------------------------- #
# SOCS imaging (Eq. (4)) as one node
# --------------------------------------------------------------------------- #
def socs_intensity(kernels, spectra, grid: Tuple[int, int]) -> Tensor:
    """Eq. (4): ``(r, n, m)`` kernels and centred ``(B, n, m)`` spectra ->
    ``(B, grid_h, grid_w)`` intensities, through the batched core's
    :func:`~repro.engine.batched.coherent_fields` (backward: the module
    docstring).  Host arrays in and out, like :func:`fft2`.

    The intensity is ``sum(np.abs(fields) ** 2)``, bit for bit :func:`abs2`
    then :func:`sum` — the op chain an ILT loss through this node is pinned
    against — not the batched core's ``(sum re^2) + (sum im^2)``, which
    rounds otherwise."""
    from ..backend import get_backend  # deferred: keep nn importable standalone
    from ..engine.batched import coherent_fields
    from ..optics.grid import crop_centre

    backend = get_backend()
    kernels, spectra = as_tensor(kernels), as_tensor(spectra)
    n, m = kernels.shape[-2:]
    fields = coherent_fields(kernels.data, spectra.data, *grid, backend)
    out_data = np.sum(np.abs(fields) ** 2, axis=1)

    def backward(grad: np.ndarray) -> None:
        adjoint = crop_centre(np.fft.fftshift(
            backend.fft2(2.0 * grad[:, None] * fields, norm="ortho"),
            axes=(-2, -1)), n, m)                             # (B, r, n, m)
        if kernels.requires_grad:
            kernels._accumulate(
                (adjoint * np.conj(spectra.data)[:, None]).sum(axis=0))
        if spectra.requires_grad:
            spectra._accumulate((adjoint * np.conj(kernels.data)).sum(axis=1))

    return _make(out_data, (kernels, spectra), backward)


# --------------------------------------------------------------------------- #
# losses
# --------------------------------------------------------------------------- #
def mse_loss(prediction, target) -> Tensor:
    """Mean squared error (Eq. (5)) between real tensors."""
    prediction, target = as_tensor(prediction), as_tensor(target)
    diff = sub(prediction, target)
    return mean(square(diff))


def bce_with_logits_loss(logits, target) -> Tensor:
    """Numerically-stable binary cross-entropy on logits (used by the cGAN baseline)."""
    logits, target = as_tensor(logits), as_tensor(target)
    # log(1 + exp(-|x|)) + max(x, 0) - x * t
    neg_abs = neg(abs(logits))
    softplus = log(add(1.0, exp(neg_abs)))
    linear = sub(relu(logits), mul(logits, target))
    return mean(add(softplus, linear))
