"""Positional encodings for coordinate-based optical-kernel regression.

Three encodings are provided, matching the paper's Table V ablation:

* ``IdentityEncoding`` — raw (normalised) coordinates, no encoding,
* ``NeRFEncoding`` — the axis-aligned sinusoids of Eq. (14),
* ``RandomFourierEncoding`` — the isotropic Gaussian random Fourier features of
  Eq. (15), mapped onto the complex field by the ``(1 + j)`` factor.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def kernel_coordinates(kernel_shape: Tuple[int, int]) -> np.ndarray:
    """Flattened, normalised ``(n*m, 2)`` coordinate list of the kernel window.

    Coordinates follow Algorithm 1 line 2: the window is enumerated row-major
    as ``[(0, 0), ..., (0, m-1), ..., (n-1, m-1)]`` and normalised to [0, 1].
    """
    n, m = kernel_shape
    if n <= 0 or m <= 0:
        raise ValueError("kernel_shape entries must be positive")
    rows = np.arange(n, dtype=float) / max(n - 1, 1)
    cols = np.arange(m, dtype=float) / max(m - 1, 1)
    grid_rows, grid_cols = np.meshgrid(rows, cols, indexing="ij")
    return np.stack([grid_rows.ravel(), grid_cols.ravel()], axis=1)


class PositionalEncoding:
    """Base class: maps an ``(N, 2)`` coordinate array to the CMLP input features."""

    #: dimensionality of the produced feature vectors
    output_dim: int = 2

    def __call__(self, coordinates: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


class IdentityEncoding(PositionalEncoding):
    """No positional encoding (Table V row "None"); coordinates are cast to complex."""

    def __init__(self) -> None:
        self.output_dim = 2

    def __call__(self, coordinates: np.ndarray) -> np.ndarray:
        coordinates = np.asarray(coordinates, dtype=float)
        return coordinates.astype(np.complex128)


class NeRFEncoding(PositionalEncoding):
    """Axis-aligned positional encoding of NeRF (Eq. (14)).

    Each coordinate value v is expanded to
    ``[sin(2^0 pi v), cos(2^0 pi v), ..., sin(2^{L-1} pi v), cos(2^{L-1} pi v)]``.
    The real features are lifted to the complex field (zero imaginary part) so
    the same CMLP head can consume them.
    """

    def __init__(self, num_frequencies: int = 8):
        if num_frequencies <= 0:
            raise ValueError("num_frequencies must be positive")
        self.num_frequencies = num_frequencies
        self.output_dim = 2 * 2 * num_frequencies

    def __call__(self, coordinates: np.ndarray) -> np.ndarray:
        coordinates = np.asarray(coordinates, dtype=float)
        if coordinates.ndim != 2 or coordinates.shape[1] != 2:
            raise ValueError("coordinates must have shape (N, 2)")
        features = []
        for level in range(self.num_frequencies):
            angle = (2.0 ** level) * np.pi * coordinates
            features.append(np.sin(angle))
            features.append(np.cos(angle))
        stacked = np.concatenate(features, axis=1)
        return stacked.astype(np.complex128)


class RandomFourierEncoding(PositionalEncoding):
    """Gaussian random Fourier features mapped to the complex field (Eq. (15)).

    ``gamma(v) = [cos(2 pi B v), sin(2 pi B v)] * (1 + j)`` with the rows of B
    drawn i.i.d. from ``N(0, sigma^2)``; the isotropic frequency distribution is
    what lets the CMLP represent the TCC spectrum without an axis-aligned bias.
    """

    def __init__(self, num_features: int = 64, sigma: float = 1.0,
                 seed: Optional[int] = 0):
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.num_features = num_features
        self.sigma = sigma
        rng = np.random.default_rng(seed)
        self.frequencies = rng.normal(scale=sigma, size=(num_features, 2))
        self.output_dim = 2 * num_features

    def __call__(self, coordinates: np.ndarray) -> np.ndarray:
        coordinates = np.asarray(coordinates, dtype=float)
        if coordinates.ndim != 2 or coordinates.shape[1] != 2:
            raise ValueError("coordinates must have shape (N, 2)")
        projected = 2.0 * np.pi * coordinates @ self.frequencies.T
        features = np.concatenate([np.cos(projected), np.sin(projected)], axis=1)
        return features * (1.0 + 1.0j)


def make_encoding(name: str, **kwargs) -> PositionalEncoding:
    """Factory: ``none`` / ``identity``, ``nerf``, ``rff`` / ``gaussian``."""
    key = name.lower()
    if key in ("none", "identity"):
        return IdentityEncoding()
    if key == "nerf":
        return NeRFEncoding(**kwargs)
    if key in ("rff", "gaussian", "fourier"):
        return RandomFourierEncoding(**kwargs)
    raise ValueError(f"unknown positional encoding '{name}'")
