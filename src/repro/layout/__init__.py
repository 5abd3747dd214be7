"""Windowed layout readers: rasterise ``(origin, size)`` windows on demand.

The frontend of the out-of-core pipeline.  PRs 1-4 made imaging streamable —
bounded tile batches, incremental stitch, disk-backed campaign records — but
every path still began by materialising the whole layout raster.  This
package closes that gap: a :class:`LayoutReader` produces any guard-banded
window the tile generator asks for without ever holding the full raster, so
peak RAM for layout data is O(one batch) end to end, and campaign identity
comes from the reader's canonical :meth:`~LayoutReader.digest` instead of a
dense-raster hash.

The protocol is three members — ``shape``, ``read_window``, ``digest`` —
and three implementations cover the spectrum:

* :class:`ArrayLayoutReader` — adapter over a dense array / ``numpy.memmap``
  (anything that already has a raster),
* :class:`GeometryLayoutReader` — bucket-grid indexed rectangles + polygons;
  window queries touch O(window) shapes, not O(layout),
* :class:`HierarchicalLayoutReader` — binary GDSII cell graphs; SREF/AREF
  placements are resolved lazily per window, never flattened up front.

:func:`load_layout_file` opens JSON / binary-GDSII scenario files on disk
as one of them (binary streams are detected by content; anything else, and
malformed streams, raise :class:`LayoutFormatError` with a file offset).

Readers plug in wherever a dense layout was accepted —
``ExecutionEngine.image_layout(reader)``,
``ShardedExecutor.image_layout``, ``ProcessWindowSweep.run`` and the
``image-layout`` / ``sweep-window`` CLI — and the imaged result is
**bit-for-bit identical** to the dense-array path (pinned by
``tests/test_layout_reader.py``).

>>> import numpy as np
>>> from repro.layout import GeometryLayoutReader, as_layout_reader
>>> from repro.layout.geometry import Rect
>>> reader = GeometryLayoutReader({"m1": [Rect(0, 0, 64, 32)]},
...                               pixel_size_nm=8.0, extent_nm=128.0)
>>> reader.shape
(16, 16)
>>> int(reader.read_window(0, 0, 16, 16).sum())   # 8 x 4 px of metal
32
>>> dense = reader.materialise()
>>> np.array_equal(as_layout_reader(dense).read_window(0, 0, 4, 8),
...                dense[:4, :8])
True
"""

from .files import LAYOUT_FILE_SUFFIXES, is_layout_file, load_layout_file
from .gdsii import (
    GDSBoundary,
    GDSCell,
    GDSLibrary,
    GDSReference,
    LayoutFormatError,
    parse_gds,
    write_gds,
)
from .hierarchy import HierarchicalLayoutReader, Transform
from .indexed import DEFAULT_BUCKET_PX, GeometryLayoutReader
from .sources import (
    load_layout_mask,
    load_layout_source,
    synthesize_layout_mask,
)
from .reader import (
    ArrayLayoutReader,
    LayoutReader,
    array_digest,
    as_layout_reader,
    is_layout_reader,
    source_digest,
)

__all__ = [
    "LayoutReader", "ArrayLayoutReader", "GeometryLayoutReader",
    "as_layout_reader", "is_layout_reader", "array_digest", "source_digest",
    "load_layout_file", "is_layout_file", "LAYOUT_FILE_SUFFIXES", "DEFAULT_BUCKET_PX",
    "load_layout_mask", "load_layout_source", "synthesize_layout_mask",
    "LayoutFormatError", "parse_gds", "write_gds", "GDSLibrary", "GDSCell",
    "GDSBoundary", "GDSReference", "HierarchicalLayoutReader", "Transform",
]
