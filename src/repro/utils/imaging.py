"""Image-resolution utilities shared by datasets, baselines and the Nitho trainer.

The central tool is band-limited (Fourier) resizing: golden aerial images are
band-limited by construction, so cropping or zero-padding their spectra is an
exact change of sampling resolution.  Binary masks and resist patterns are
resized with area pooling / nearest neighbour instead, to stay binary.
:func:`ascii_image` / :func:`write_pgm` are the matplotlib-free image dumps
the campaign report and the paper figures share.
"""

from __future__ import annotations

import os
from typing import Tuple

import numpy as np


def fourier_resize(image: np.ndarray, output_shape: Tuple[int, int]) -> np.ndarray:
    """Resize a real image by cropping / zero-padding its centred spectrum.

    Pixel values are preserved (the DC component is untouched) because the
    transform pair uses ``norm="forward"``.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("fourier_resize expects a 2-D image")
    out_h, out_w = output_shape
    if out_h <= 0 or out_w <= 0:
        raise ValueError("output_shape entries must be positive")
    in_h, in_w = image.shape
    if (out_h, out_w) == (in_h, in_w):
        return image.copy()

    spectrum = np.fft.fftshift(np.fft.fft2(image, norm="forward"))
    resized = np.zeros((out_h, out_w), dtype=complex)

    crop_h, crop_w = min(in_h, out_h), min(in_w, out_w)
    src_top = in_h // 2 - crop_h // 2
    src_left = in_w // 2 - crop_w // 2
    dst_top = out_h // 2 - crop_h // 2
    dst_left = out_w // 2 - crop_w // 2
    resized[dst_top:dst_top + crop_h, dst_left:dst_left + crop_w] = (
        spectrum[src_top:src_top + crop_h, src_left:src_left + crop_w])
    return np.real(np.fft.ifft2(np.fft.ifftshift(resized), norm="forward"))


def fourier_resize_batch(images: np.ndarray, output_shape: Tuple[int, int]) -> np.ndarray:
    """Band-limited resize of an image batch ``(..., H, W)`` in one FFT pass.

    Vectorised counterpart of :func:`fourier_resize`: the spectrum crop /
    zero-pad acts on the last two axes, so a whole batch moves through a
    single transform pair instead of a Python loop.
    """
    images = np.asarray(images, dtype=float)
    if images.ndim < 2:
        raise ValueError("fourier_resize_batch expects at least a 2-D image")
    out_h, out_w = output_shape
    if out_h <= 0 or out_w <= 0:
        raise ValueError("output_shape entries must be positive")
    in_h, in_w = images.shape[-2:]
    if (out_h, out_w) == (in_h, in_w):
        return images.copy()

    spectrum = np.fft.fftshift(np.fft.fft2(images, norm="forward"), axes=(-2, -1))
    resized = np.zeros(images.shape[:-2] + (out_h, out_w), dtype=complex)

    crop_h, crop_w = min(in_h, out_h), min(in_w, out_w)
    src_top = in_h // 2 - crop_h // 2
    src_left = in_w // 2 - crop_w // 2
    dst_top = out_h // 2 - crop_h // 2
    dst_left = out_w // 2 - crop_w // 2
    resized[..., dst_top:dst_top + crop_h, dst_left:dst_left + crop_w] = (
        spectrum[..., src_top:src_top + crop_h, src_left:src_left + crop_w])
    return np.real(np.fft.ifft2(np.fft.ifftshift(resized, axes=(-2, -1)), norm="forward"))


def binarize(image: np.ndarray) -> np.ndarray:
    """Threshold an image to {0, 1} with values above 0.5 mapping to 1."""
    return (np.asarray(image, dtype=float) > 0.5).astype(np.uint8)


def normalize01(image: np.ndarray) -> np.ndarray:
    """Linearly map an image to [0, 1]; constant images map to zeros."""
    image = np.asarray(image, dtype=float)
    lo, hi = float(image.min()), float(image.max())
    if hi - lo <= 0:
        return np.zeros_like(image)
    return (image - lo) / (hi - lo)


_ASCII_LEVELS = " .:-=+*#%@"


def ascii_image(image: np.ndarray, width: int = 64) -> str:
    """Render an image as ASCII art (brighter pixels map to denser glyphs)."""
    image = normalize01(np.asarray(image, dtype=float))
    height = max(1, int(round(width * image.shape[0] / image.shape[1] / 2)))
    rows = np.linspace(0, image.shape[0] - 1, height).astype(int)
    cols = np.linspace(0, image.shape[1] - 1, width).astype(int)
    sampled = image[np.ix_(rows, cols)]
    indices = np.clip((sampled * (len(_ASCII_LEVELS) - 1)).round().astype(int),
                      0, len(_ASCII_LEVELS) - 1)
    return "\n".join("".join(_ASCII_LEVELS[i] for i in line) for line in indices)


def write_pgm(image: np.ndarray, path: str) -> str:
    """Write an image as an 8-bit binary PGM file; returns the path."""
    image = normalize01(np.asarray(image, dtype=float))
    data = (image * 255).astype(np.uint8)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(data.tobytes())
    return path
