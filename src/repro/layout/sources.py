"""Turn a layout *description* into something the engines can image.

A dense ``.npy``/``.npz`` raster, a geometry file (repro-layout JSON /
hierarchical binary GDSII, imaged through the windowed readers) or a
synthesised benchmark canvas: every entry point resolves layouts here.

A geometry file is parsed once per process: :func:`load_layout_source`
keeps the last :data:`READER_MEMO_LIMIT` readers it built, keyed by the
file's real path, the SHA-256 of its bytes and the pixel size.  A file
rewritten in place hashes to a new key, so a kept reader is never stale;
and a reader's windows never change after construction, which is what lets
the tile-cache pipeline keep each window's digest on it
(:mod:`repro.engine.streaming`).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from ..utils.lru import LockedLRU
from .files import is_layout_file, layout_reader_from_bytes, read_layout_bytes

__all__ = [
    "load_layout_mask",
    "load_layout_source",
    "synthesize_layout_mask",
]


def load_layout_mask(path: str) -> np.ndarray:
    """Dense 2-D raster from a ``.npy`` / ``.npz`` file (key ``mask`` first)."""
    if path.endswith(".npz"):
        with np.load(path) as data:
            key = "mask" if "mask" in data.files else data.files[0]
            mask = np.asarray(data[key], dtype=float)
    else:
        mask = np.asarray(np.load(path), dtype=float)
    if mask.ndim != 2:
        raise ValueError(
            f"layout mask in {path} must be 2-D, got shape {mask.shape}")
    return mask


#: Geometry-file readers :func:`load_layout_source` keeps per process.
READER_MEMO_LIMIT = 4

_READERS = LockedLRU(READER_MEMO_LIMIT)


def load_layout_source(path: str, pixel_size_nm: float):
    """Dense raster (``.npy``/``.npz``) or windowed geometry reader (anything
    :func:`repro.layout.is_layout_file` recognises — JSON / binary GDSII).

    A geometry file is read whole on every call but parsed only when no
    kept reader matches its real path, content hash and pixel size; callers
    that share a reader (a service's campaigns on one file) share a
    read-only object.  Concurrent first calls on one file parse it once.
    """
    if not is_layout_file(path):
        return load_layout_mask(path)
    data = read_layout_bytes(path)
    pixel_size_nm = float(pixel_size_nm)
    key = (os.path.realpath(path), hashlib.sha256(data).hexdigest(),
           pixel_size_nm)
    return _READERS.get_or_build(key, lambda: layout_reader_from_bytes(
        path, data, pixel_size_nm))


def synthesize_layout_mask(height_px: int, width_px: int, tile_size_px: int,
                           pixel_size_nm: float, family: str,
                           seed: int) -> np.ndarray:
    """Paste generator tiles onto an (height, width) canvas — a stand-in full layout."""
    # The one production -> paper import (tests/test_import_boundary.py):
    # deferred so only a synthetic layout loads the benchmark generators.
    from ..masks import make_generator

    generator = make_generator(family, tile_size_px, pixel_size_nm, seed=seed)
    rows = -(-height_px // tile_size_px)
    cols = -(-width_px // tile_size_px)
    tiles = generator.generate(rows * cols)
    canvas = np.zeros((rows * tile_size_px, cols * tile_size_px))
    for index, tile in enumerate(tiles):
        row, col = divmod(index, cols)
        canvas[row * tile_size_px:(row + 1) * tile_size_px,
               col * tile_size_px:(col + 1) * tile_size_px] = tile
    return canvas[:height_px, :width_px]
