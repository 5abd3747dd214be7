"""Small shared utilities (band-limited resizing, binarisation)."""

from .imaging import binarize, fourier_resize, normalize01

__all__ = ["fourier_resize", "binarize", "normalize01"]
