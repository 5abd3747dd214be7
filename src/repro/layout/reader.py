"""The windowed layout-reader protocol and the dense-array adapter.

Every out-of-core guarantee the engine stack earned — streaming stitch,
(focus, shard) scheduling, the resumable campaign store — used to bottleneck
on one step: the layout itself had to exist as a dense ``(H, W)`` raster
before the first tile was cut.  A :class:`LayoutReader` removes that step.
It is anything that can

* report the raster ``shape`` it represents,
* rasterise an arbitrary ``(origin, size)`` window on demand
  (:meth:`LayoutReader.read_window`), with zeros beyond the layout boundary
  (an empty reticle), and
* produce a canonical content :meth:`~LayoutReader.digest` so campaign
  identity can be established without ever materialising the raster.

The tiling / streaming layers (:mod:`repro.engine.tiling`,
:mod:`repro.engine.streaming`) consume readers only — ``image_layout`` wraps
a dense array in :class:`ArrayLayoutReader` once, on the way in — and the
imaged result is **bit-for-bit identical** because tile extraction asks every
reader for exactly the same guard-banded windows.

Implementations in this package:

* :class:`ArrayLayoutReader` — adapter over an in-memory array or
  ``numpy.memmap`` (this module),
* :class:`~repro.layout.indexed.GeometryLayoutReader` — bucket-grid indexed
  rectangles/polygons, window queries touch O(window) shapes,
* :class:`~repro.layout.hierarchy.HierarchicalLayoutReader` — binary GDSII
  cell graphs, SREF/AREF resolved lazily per window.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np


def array_digest(layout: np.ndarray) -> str:
    """SHA-256 of a dense layout's raw bytes + shape (its campaign identity).

    This is the canonical digest of a *raster*; geometry-backed readers hash
    their canonical shape list instead (same role, different witness — see
    :meth:`GeometryLayoutReader.digest`).
    """
    layout = np.ascontiguousarray(layout)
    digest = hashlib.sha256()
    digest.update(str(layout.shape).encode("ascii"))
    digest.update(str(layout.dtype).encode("ascii"))
    digest.update(layout.tobytes())
    return digest.hexdigest()


@runtime_checkable
class LayoutReader(Protocol):
    """Anything that rasterises ``(origin, size)`` windows of a layout on demand.

    The protocol is structural (duck-typed) and exactly three members wide:
    ``shape``, ``read_window`` and ``digest`` — nothing is optional and the
    engine layers call nothing else, so readers need not inherit from
    anything.  Whether a window is empty is the engine's question, answered
    from the window itself.
    """

    @property
    def shape(self) -> Tuple[int, int]:
        """Raster dimensions ``(H, W)`` in pixels."""
        ...  # pragma: no cover - protocol

    def read_window(self, row: int, col: int, height: int,
                    width: int) -> np.ndarray:
        """Rasterise the ``(height, width)`` window whose top-left pixel is
        ``(row, col)``.  Coordinates may extend beyond — or lie entirely
        outside — the layout; out-of-bounds content is zero.

        Any real dtype may be returned, the same one for every window: the
        engine casts only the tiles it images, and the tile-result cache
        keys a window by the bytes the reader produced.  The geometry
        readers return binary ``uint8`` coverage, :class:`ArrayLayoutReader`
        the wrapped raster's floating dtype.

        ``read_window`` may be called from several threads at once, on one
        reader: without a tile cache every imaging thread reads its own
        tiles' windows.  It must be safe under that: no shared file
        position, lazily filled cache or counter updated without a lock."""
        ...  # pragma: no cover - protocol

    def digest(self) -> str:
        """Canonical content hash: two readers describing the same layout
        content agree, so campaign identity never needs the dense raster."""
        ...  # pragma: no cover - protocol


class ArrayLayoutReader:
    """A :class:`LayoutReader` over a dense 2-D array (or ``numpy.memmap``).

    The adapter that lets everything already holding a raster speak the
    reader protocol.  Windows are zero-padded copies, so callers may write
    into them freely, and a memmap-backed layout only pages in the windows
    actually read.

    >>> import numpy as np
    >>> reader = ArrayLayoutReader(np.eye(3))
    >>> reader.shape
    (3, 3)
    >>> reader.read_window(-1, -1, 3, 3)   # beyond-boundary content is zero
    array([[0., 0., 0.],
           [0., 1., 0.],
           [0., 0., 1.]])
    """

    def __init__(self, layout: np.ndarray):
        if np.ndim(layout) != 2:
            raise ValueError("layout must be a 2-D image")
        # Memmaps pass through untouched; plain arrays are cast to float so
        # windows match what the tiling extractor produced for dense input.
        if not np.issubdtype(np.asarray(layout).dtype, np.floating):
            layout = np.asarray(layout, dtype=float)
        self._layout = layout

    @property
    def shape(self) -> Tuple[int, int]:
        return int(self._layout.shape[0]), int(self._layout.shape[1])

    def read_window(self, row: int, col: int, height: int, width: int,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        """The protocol's window.  Given ``out``, a ``(height, width)``
        array of any real dtype, the window is written into it and ``out``
        returned: the raster's part copied once, cast on assignment, and
        only the margin beyond the layout zeroed."""
        if height <= 0 or width <= 0:
            raise ValueError("window dimensions must be positive")
        if out is None:
            out = np.empty((height, width), dtype=self._layout.dtype)
        elif out.shape != (height, width):
            raise ValueError(f"out has shape {out.shape}, the window "
                             f"{(height, width)}")
        layout_h, layout_w = self.shape
        # The window's rows top .. bottom - 1 and columns left .. right - 1
        # lie inside the layout (an empty range when none does).
        top, left = min(max(-row, 0), height), min(max(-col, 0), width)
        bottom = max(min(layout_h - row, height), top)
        right = max(min(layout_w - col, width), left)
        out[:top] = 0
        out[bottom:] = 0
        out[top:bottom, :left] = 0
        out[top:bottom, right:] = 0
        out[top:bottom, left:right] = self._layout[
            row + top:row + bottom, col + left:col + right]
        return out

    def digest(self) -> str:
        return array_digest(np.asarray(self._layout))


def is_layout_reader(source) -> bool:
    """True when ``source`` speaks the reader protocol (duck-typed)."""
    return hasattr(source, "read_window") and hasattr(source, "shape")


def as_layout_reader(source) -> LayoutReader:
    """Coerce a dense array (or pass an existing reader through) to a reader."""
    if is_layout_reader(source):
        return source
    return ArrayLayoutReader(np.asarray(source))


def source_digest(source) -> str:
    """Campaign-identity digest of a layout source (reader or dense array)."""
    if is_layout_reader(source):
        return source.digest()
    return array_digest(np.asarray(source))
