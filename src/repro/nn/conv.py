"""Real-valued 2-D convolution layers (im2col based).

These support the image-to-image baseline models (TEMPO-style conditional
encoder/decoder and the CNN branch of DOINN).  They operate on NCHW tensors.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import init
from .layers import Module
from .tensor import Tensor, as_tensor


def _im2col(x: np.ndarray, kernel: Tuple[int, int], stride: int, padding: int):
    """Convert NCHW input into column form for matrix-multiply convolution."""
    batch, channels, height, width = x.shape
    kh, kw = kernel
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - kh) // stride + 1
    out_w = (x.shape[3] - kw) // stride + 1
    strides = x.strides
    shape = (batch, channels, out_h, out_w, kh, kw)
    view_strides = (strides[0], strides[1], strides[2] * stride, strides[3] * stride,
                    strides[2], strides[3])
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=view_strides)
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(batch * out_h * out_w, channels * kh * kw)
    return np.ascontiguousarray(cols), out_h, out_w, x.shape


def _col2im(cols: np.ndarray, padded_shape, kernel, stride, padding, out_h, out_w):
    """Scatter-add column gradients back to the (padded) input layout."""
    batch, channels, padded_h, padded_w = padded_shape
    kh, kw = kernel
    grad_padded = np.zeros(padded_shape)
    cols = cols.reshape(batch, out_h, out_w, channels, kh, kw)
    for i in range(kh):
        for j in range(kw):
            grad_padded[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += (
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2))
    if padding:
        return grad_padded[:, :, padding:padded_h - padding, padding:padded_w - padding]
    return grad_padded


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Differentiable 2-D convolution (cross-correlation) on NCHW tensors."""
    x, weight = as_tensor(x), as_tensor(weight)
    out_channels, in_channels, kh, kw = weight.shape
    cols, out_h, out_w, padded_shape = _im2col(x.data, (kh, kw), stride, padding)
    weight_matrix = weight.data.reshape(out_channels, -1)
    out = cols @ weight_matrix.T
    batch = x.shape[0]
    out = out.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    if bias is not None:
        bias = as_tensor(bias)
        out = out + bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_cols_source = grad.transpose(0, 2, 3, 1).reshape(-1, out_channels)
        if weight.requires_grad:
            grad_weight = (grad_cols_source.T @ cols).reshape(weight.shape)
            weight._accumulate(grad_weight)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_cols = grad_cols_source @ weight_matrix
            grad_x = _col2im(grad_cols, padded_shape, (kh, kw), stride, padding, out_h, out_w)
            x._accumulate(grad_x)

    requires = any(p.requires_grad for p in parents)
    if not requires:
        return Tensor(out)
    return Tensor(out, requires_grad=True, _parents=parents, _backward=backward)


def upsample2x(x) -> Tensor:
    """Nearest-neighbour 2x upsampling on the last two axes (decoder path)."""
    x = as_tensor(x)
    out_data = np.repeat(np.repeat(x.data, 2, axis=-2), 2, axis=-1)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            h2, w2 = grad.shape[-2], grad.shape[-1]
            reshaped = grad.reshape(*grad.shape[:-2], h2 // 2, 2, w2 // 2, 2)
            x._accumulate(reshaped.sum(axis=(-3, -1)))

    if not x.requires_grad:
        return Tensor(out_data)
    return Tensor(out_data, requires_grad=True, _parents=(x,), _backward=backward)


class Conv2d(Module):
    """Learnable 2-D convolution layer (NCHW)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = self.register_parameter("weight", Tensor(init.he_uniform(shape, rng)))
        self.use_bias = bias
        if bias:
            self.bias = self.register_parameter("bias", Tensor(np.zeros(out_channels)))

    def forward(self, x: Tensor) -> Tensor:
        bias = self.bias if self.use_bias else None
        return conv2d(x, self.weight, bias, stride=self.stride, padding=self.padding)
