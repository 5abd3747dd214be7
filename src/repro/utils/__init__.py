"""Small shared utilities (band-limited resizing, binarisation)."""

from .imaging import binarize, fourier_resize, fourier_resize_batch, normalize01

__all__ = ["fourier_resize", "fourier_resize_batch", "binarize", "normalize01"]
