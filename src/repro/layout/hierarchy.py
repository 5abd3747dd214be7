"""Hierarchical layout reader: lazy SREF/AREF resolution, windowed raster.

A parsed :class:`~repro.layout.gdsii.GDSLibrary` is a cell *graph* — each
cell's own polygons plus placements (single ``SREF`` or ``AREF`` arrays) of
other cells.  :class:`HierarchicalLayoutReader` speaks the
:class:`~repro.layout.reader.LayoutReader` protocol directly over that
graph:

* the cell graph is validated (cycle detection) and each cell's geometry is
  decomposed to rectangles and indexed into a per-cell **bucket grid built
  once**, in the cell's own frame — an ``AREF`` of a million instances
  indexes its cell exactly once;
* ``read_window`` resolves transforms lazily: the placement tree is walked
  top-down, instances whose chip-space bounding box misses the window are
  pruned (for arrays, the intersecting ``(column, row)`` index range is
  solved in closed form, so cost is flat in instance count), and only the
  surviving geometry is transformed and rasterised — the dense flat raster
  never materialises;
* **the per-rectangle path** — :meth:`HierarchicalLayoutReader._iter_cell`
  (every transformed coordinate) followed by
  :func:`~repro.layout.geometry._pixel_interval` (the pixel-centre rule) —
  is the only place that arithmetic is written.  The window walk,
  :meth:`~HierarchicalLayoutReader.flatten`, ``digest()`` and the memo build
  below all run it, so windows are **bit-for-bit** equal to the
  corresponding slices of the dense flatten (pinned across backends,
  precisions, sharding and streaming by ``tests/test_layout_hierarchy.py``);
* :meth:`~HierarchicalLayoutReader.digest` hashes the flattened pixel
  intervals in exactly the canonical
  :meth:`~repro.layout.indexed.GeometryLayoutReader.digest` form, so a
  hierarchical layout and its flat equivalent share one campaign identity.

**A repeated cell rasterises once.**  A placed cell that touches the window
is painted as one integer-pixel OR-blit of a memoised raster instead of a
walk of its subtree.  The memo key is ``(cell, a, b, c, d, phase_x,
phase_y)``: the cell, the linear part of its composed placement and the
sub-pixel phase ``t - floor(t / pixel) * pixel`` of its translation.  The
raster of a key is built once, *through the per-rectangle path* (the
subtree flattened under the key's transform, unclipped), and a placement
with translation ``t`` is that raster shifted by ``floor(t / pixel)`` whole
pixels and clipped to the window.  Nobody turns this on or off; a placement
is eligible when the shift is provably exact:

    *Lemma (dyadic lattice).*  Let every number that enters a coordinate —
    the subtree's rectangle corners, placement origins and array steps, and
    the placement's translation — be a multiple of ``2**-10`` nm no larger
    than ``2**31`` nm, every magnification a power of two with the
    cumulative one at least ``2**-10``, and the pixel size a power of two in
    ``2**-10 .. 2**10`` nm.  Then every value the per-rectangle path
    computes is a multiple of ``2**-20`` nm no larger than ``2**32`` nm — 53
    significant bits, what a double holds — so none of its sums and products
    rounds, and neither do ``x / pixel`` and ``x / pixel - 0.5``:
    ``ceil(x / p - 0.5)`` *is* the real-number pixel-centre rule.
    Translating by ``k`` whole pixels
    therefore adds exactly ``k * p`` to every coordinate and exactly ``k``
    to every pixel index: the blit sets the pixels the per-rectangle path
    would.

The 1 / 0.5 / 0.25 nm database units and 1 / 2 / 4 / 8 nm pixels of real
layouts are on the lattice.  Everything else — a 0.1 nm database unit, a
magnification of 1.1, a 2.5 nm pixel, and the top cell's own rectangles —
takes the bucket-query + per-rectangle path unchanged; since that path is
also what fills the memo and what ``flatten()`` runs, the fallback is the
oracle, not a second implementation.  Two module constants bound the memo
and are deliberately not settings: :data:`MAX_CELL_RASTER_PX` (a placed cell
with a larger pixel hull is walked and pruned, never rasterised whole) and
:data:`MEMO_BUDGET_BYTES` (rasters kept per reader), so RAM stays O(window)
whatever the layout repeats.

Transforms follow the GDSII convention restricted to Manhattan layouts:
optional reflection about the x axis, magnification, then rotation by a
multiple of 90 degrees, then translation (the parser rejects other angles).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np

from .gdsii import GDSLibrary, LayoutFormatError, parse_gds
from .geometry import Polygon, Rect, _pixel_interval
from .indexed import DEFAULT_BUCKET_PX, _BucketGrid, layout_digest

__all__ = [
    "Transform",
    "HierarchicalLayoutReader",
]

#: Exact unit-circle values for quarter-turn rotations (index = turns % 4).
_COS = (1.0, 0.0, -1.0, 0.0)
_SIN = (0.0, 1.0, 0.0, -1.0)

#: Largest pixel hull (rows x columns) of a placed cell that is memoised.  A
#: constant, not a setting: it only has to sit between "a standard cell"
#: and "a window" — a bigger cell is walked and pruned like the top cell, so
#: nothing chip-sized is ever rasterised whole.
MAX_CELL_RASTER_PX = 2 ** 18
#: Bytes of rasters one reader keeps.  A constant for the same reason: it
#: bounds the reader at "a few windows" of RAM whatever the layout repeats;
#: keys that arrive once it is spent take the per-rectangle path.
MEMO_BUDGET_BYTES = 2 ** 24
#: Bookkeeping charged per memo entry (key tuple, array header, dict slot),
#: so a layout of countless tiny cells cannot outgrow the budget either.
_MEMO_ENTRY_BYTES = 512

#: The dyadic lattice of the module docstring: multiples of 2**-10 nm, at
#: most 2**31 nm away from the origin, scaled by 2**-10 .. 2**10.
_LATTICE_SCALE = 2.0 ** 10
_LATTICE_LIMIT = 2.0 ** 31
_LATTICE_MIN_SCALE = 1.0 / _LATTICE_SCALE


def _on_lattice(value: float) -> bool:
    return (value * _LATTICE_SCALE).is_integer()


def _is_power_of_two(value: float) -> bool:
    return value > 0.0 and math.frexp(value)[0] == 0.5


class Transform(NamedTuple):
    """A Manhattan affine map ``p -> A p + t`` (nm coordinates).

    ``A`` is ``[[a, b], [c, d]]`` with entries in ``{0, ±mag}`` — the only
    linear parts expressible as reflect + magnify + quarter-turn rotate —
    so axis-aligned rectangles map to axis-aligned rectangles exactly.
    """

    a: float
    b: float
    c: float
    d: float
    tx: float
    ty: float

    @staticmethod
    def identity() -> "Transform":
        return Transform(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    @staticmethod
    def place(tx: float, ty: float, mag: float = 1.0,
              quarter_turns: int = 0, reflect: bool = False) -> "Transform":
        """GDSII placement order: reflect about x, magnify, rotate, move."""
        cos, sin = _COS[quarter_turns % 4], _SIN[quarter_turns % 4]
        sy = -1.0 if reflect else 1.0
        return Transform(a=mag * cos, b=-mag * sin * sy,
                         c=mag * sin, d=mag * cos * sy, tx=tx, ty=ty)

    def apply(self, x: float, y: float) -> Tuple[float, float]:
        return (self.a * x + self.b * y + self.tx,
                self.c * x + self.d * y + self.ty)

    def apply_box(self, x1: float, y1: float, x2: float, y2: float,
                  ) -> Tuple[float, float, float, float]:
        """Image of an axis-aligned box (Manhattan maps preserve the form,
        so the two opposite corners determine it)."""
        px, py = self.apply(x1, y1)
        qx, qy = self.apply(x2, y2)
        return min(px, qx), min(py, qy), max(px, qx), max(py, qy)

    def invert_box(self, x1: float, y1: float, x2: float, y2: float,
                   ) -> Tuple[float, float, float, float]:
        """Pre-image of an axis-aligned box (used only for conservative
        candidate selection; rasterisation always uses forward maps)."""
        det = self.a * self.d - self.b * self.c
        corners = []
        for cx, cy in ((x1, y1), (x2, y2)):
            dx, dy = cx - self.tx, cy - self.ty
            corners.append(((self.d * dx - self.b * dy) / det,
                            (-self.c * dx + self.a * dy) / det))
        (px, py), (qx, qy) = corners
        return min(px, qx), min(py, qy), max(px, qx), max(py, qy)


@dataclass(frozen=True)
class _Instance:
    """One placement, pre-scaled to nm: an SREF is the 1x1 array case.
    ``linear`` is the ``(a, b, c, d)`` of :meth:`Transform.place` — the same
    for every element of an array."""

    cell: str
    origin: Tuple[float, float]
    linear: Tuple[float, float, float, float]
    columns: int
    rows: int
    column_vector: Tuple[float, float]
    row_vector: Tuple[float, float]


def _boxes_intersect(box: Tuple[float, float, float, float],
                     other: Tuple[float, float, float, float]) -> bool:
    return not (box[2] <= other[0] or other[2] <= box[0]
                or box[3] <= other[1] or other[3] <= box[1])


def _index_interval(value_low: float, value_high: float, step: float,
                    count: int) -> Optional[Tuple[int, int]]:
    """Integer ``i`` range with ``i * step`` inside ``[low, high]``, clipped
    to ``[0, count)``; ``None`` when empty.  ``step == 0`` keeps the full
    range when 0 is inside the interval."""
    low, high = 0, count - 1
    if step > 0:
        low = max(low, math.ceil(value_low / step - 1e-9))
        high = min(high, math.floor(value_high / step + 1e-9))
    elif step < 0:
        low = max(low, math.ceil(value_high / step - 1e-9))
        high = min(high, math.floor(value_low / step + 1e-9))
    elif not value_low <= 0.0 <= value_high:
        return None
    if low > high:
        return None
    return low, high


class HierarchicalLayoutReader:
    """A :class:`~repro.layout.reader.LayoutReader` over a GDSII cell graph.

    Parameters
    ----------
    library:
        A parsed :class:`~repro.layout.gdsii.GDSLibrary` (or raw ``bytes`` /
        a path, parsed on the spot).
    pixel_size_nm:
        Raster sampling pitch.

    The root is the library's single unreferenced cell; the raster is the
    square hull of its bounding box, rounded up to whole pixels; every layer
    (GDSII layer numbers as strings, matching the flat readers) is
    rasterised, unioned.

    Raises :class:`~repro.layout.gdsii.LayoutFormatError` on cyclic cell
    graphs, libraries without exactly one top cell and layouts with no
    rasterisable content.
    """

    def __init__(self, library, pixel_size_nm: float,
                 source: Optional[str] = None):
        if not isinstance(library, GDSLibrary):
            library = parse_gds(library, name=source)
        if pixel_size_nm <= 0:
            raise ValueError("pixel_size_nm must be positive")
        self.library = library
        self._pixel_size_nm = float(pixel_size_nm)
        self._source = source or library.name
        self._top = self._resolve_top()
        self._check_acyclic()
        unit = library.unit_nm
        bucket_nm = DEFAULT_BUCKET_PX * self.pixel_size_nm
        #: cell -> layer -> bucket grid over local nm rects (built once).
        self._grids: Dict[str, Dict[str, _BucketGrid]] = {}
        #: cell -> placements with nm origins / displacement vectors.
        self._instances: Dict[str, List[_Instance]] = {}
        for name, cell in library.cells.items():
            grids: Dict[str, _BucketGrid] = {}
            for boundary in cell.boundaries:
                layer = str(boundary.layer)
                grid = grids.setdefault(layer, _BucketGrid(bucket_nm))
                ring = tuple((x * unit, y * unit) for x, y in boundary.xy)
                for rect in Polygon(ring).to_rects():
                    grid.add(rect.x, rect.y, rect.x2, rect.y2)
            self._grids[name] = grids
            self._instances[name] = [
                _Instance(cell=ref.cell,
                          origin=(ref.origin[0] * unit, ref.origin[1] * unit),
                          linear=Transform.place(
                              0.0, 0.0, mag=ref.mag,
                              quarter_turns=ref.quarter_turns,
                              reflect=ref.reflect)[:4],
                          columns=ref.columns, rows=ref.rows,
                          column_vector=(ref.column_vector[0] * unit,
                                         ref.column_vector[1] * unit),
                          row_vector=(ref.row_vector[0] * unit,
                                      ref.row_vector[1] * unit))
                for ref in cell.references]
        self._bboxes = self._compute_bboxes()
        self._lattice = self._compute_lattice()
        #: (cell, a, b, c, d, phase_x, phase_y) -> (raster, chip row and
        #: column of its [0, 0] at zero whole-pixel shift); see
        #: :meth:`_placed_raster`.
        self._rasters: Dict[tuple, Tuple[np.ndarray, int, int]] = {}
        self._raster_bytes = 0
        self._memo_lock = threading.Lock()
        self._layers = tuple(sorted({layer for grids in self._grids.values()
                                     for layer in grids}))
        self._shape = self._default_shape()
        #: Rectangles painted plus cell rasters blitted by the most recent
        #: ``read_window`` — the flat-in-instance-count observable the
        #: tests pin.
        self.last_candidates = 0
        self._digest: Optional[str] = None

    # -------------------------------------------------------------- #
    # graph validation / derived geometry
    # -------------------------------------------------------------- #
    def _resolve_top(self) -> str:
        if not self.library.cells:
            raise LayoutFormatError(self._source, 0,
                                    "library defines no structures")
        tops = self.library.top_cells
        if len(tops) == 1:
            return tops[0]
        if not tops:
            raise LayoutFormatError(self._source, 0,
                                    "no top cell: every structure is "
                                    "referenced (reference cycle)")
        raise LayoutFormatError(
            self._source, 0,
            f"ambiguous top cell: the layout has {len(tops)} top cells "
            f"({', '.join(tops)}) and must have exactly one; re-export it "
            f"with a single top cell")

    def _check_acyclic(self) -> None:
        """Iterative three-colour DFS; raises on the first back edge."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {name: WHITE for name in self.library.cells}
        for root in self.library.cells:
            if colour[root] != WHITE:
                continue
            stack: List[Tuple[str, Iterator[str]]] = [
                (root, iter([ref.cell for ref in
                             self.library.cells[root].references]))]
            colour[root] = GREY
            while stack:
                name, children = stack[-1]
                child = next(children, None)
                if child is None:
                    colour[name] = BLACK
                    stack.pop()
                    continue
                if colour[child] == GREY:
                    cycle = [entry[0] for entry in stack]
                    cycle = cycle[cycle.index(child):] + [child]
                    raise LayoutFormatError(
                        self._source, 0,
                        f"reference cycle: {' -> '.join(cycle)}")
                if colour[child] == WHITE:
                    colour[child] = GREY
                    stack.append(
                        (child, iter([ref.cell for ref in
                                      self.library.cells[child].references])))

    def _compute_bboxes(self) -> Dict[str, Optional[Tuple[float, float,
                                                          float, float]]]:
        """Local-frame nm bounding box per cell, children included
        (bottom-up over the DAG via memoised recursion-by-stack)."""
        bboxes: Dict[str, Optional[Tuple[float, float, float, float]]] = {}

        def resolve(name: str) -> Optional[Tuple[float, float, float, float]]:
            if name in bboxes:
                return bboxes[name]
            box: Optional[Tuple[float, float, float, float]] = None

            def merge(other):
                nonlocal box
                if other is None:
                    return
                box = other if box is None else (
                    min(box[0], other[0]), min(box[1], other[1]),
                    max(box[2], other[2]), max(box[3], other[3]))

            for grid in self._grids[name].values():
                for rect_box in grid.boxes:
                    merge(rect_box)
            for instance in self._instances[name]:
                child_box = resolve(instance.cell)
                if child_box is None:
                    continue
                placed = Transform(*instance.linear,
                                   *instance.origin).apply_box(*child_box)
                for column in (0, instance.columns - 1):
                    for row in (0, instance.rows - 1):
                        dx = (column * instance.column_vector[0]
                              + row * instance.row_vector[0])
                        dy = (column * instance.column_vector[1]
                              + row * instance.row_vector[1])
                        merge((placed[0] + dx, placed[1] + dy,
                               placed[2] + dx, placed[3] + dy))
            bboxes[name] = box
            return box

        for name in self.library.cells:
            resolve(name)
        return bboxes

    def _default_shape(self) -> Tuple[int, int]:
        box = self._bboxes[self._top]
        if box is None or box[2] <= 0 or box[3] <= 0:
            raise LayoutFormatError(
                self._source, 0,
                f"top cell {self._top!r} has no rasterisable content")
        side = int(-(-max(box[2], box[3]) // self.pixel_size_nm))  # ceil
        return side, side

    # -------------------------------------------------------------- #
    # the lazy placement walk
    # -------------------------------------------------------------- #
    def _element_indices(self, instance: _Instance,
                         column_step: Tuple[float, float],
                         row_step: Tuple[float, float],
                         element_box: Tuple[float, float, float, float],
                         window: Tuple[float, float, float, float],
                         ) -> Iterator[Tuple[int, int]]:
        """Candidate ``(column, row)`` indices of array elements that may
        intersect the chip-space ``window`` — solved in closed form from the
        chip-space box of element ``(0, 0)`` and the chip-space step
        vectors, so the cost is the number of *intersecting* elements, not
        ``cols * rows``.  Conservative: callers still bbox-test each
        candidate exactly.
        """
        columns, rows = instance.columns, instance.rows
        cvx, cvy = column_step
        rvx, rvy = row_step
        # The displacement i*CV + j*RV must land inside this box for the
        # element bbox to touch the window.
        low_x, high_x = window[0] - element_box[2], window[2] - element_box[0]
        low_y, high_y = window[1] - element_box[3], window[3] - element_box[1]
        if columns == 1 and rows == 1:
            if low_x <= 0.0 <= high_x and low_y <= 0.0 <= high_y:
                yield 0, 0
            return
        determinant = cvx * rvy - cvy * rvx
        if columns > 1 and rows > 1 and determinant != 0.0:
            # Invert the 2x2 step matrix; the admissible (dx, dy) box maps
            # to an (i, j) parallelogram whose corner hull bounds the range.
            i_values, j_values = [], []
            for dx in (low_x, high_x):
                for dy in (low_y, high_y):
                    i_values.append((rvy * dx - rvx * dy) / determinant)
                    j_values.append((-cvy * dx + cvx * dy) / determinant)
            i_low = max(0, math.ceil(min(i_values) - 1e-9))
            i_high = min(columns - 1, math.floor(max(i_values) + 1e-9))
            j_low = max(0, math.ceil(min(j_values) - 1e-9))
            j_high = min(rows - 1, math.floor(max(j_values) + 1e-9))
            for column in range(i_low, i_high + 1):
                for row in range(j_low, j_high + 1):
                    yield column, row
            return
        if columns == 1 or rows == 1:
            # One-dimensional array: intersect the per-axis constraints.
            count = columns if rows == 1 else rows
            vx, vy = column_step if rows == 1 else row_step
            span_x = _index_interval(low_x, high_x, vx, count)
            span_y = _index_interval(low_y, high_y, vy, count)
            if span_x is None or span_y is None:
                return
            low = max(span_x[0], span_y[0])
            high = min(span_x[1], span_y[1])
            for index in range(low, high + 1):
                yield (index, 0) if rows == 1 else (0, index)
            return
        # Collinear 2-D spacing is rejected at parse time; a programmatic
        # library can still reach here — fall back to the exhaustive scan.
        for column in range(columns):  # pragma: no cover - malformed input
            for row in range(rows):
                yield column, row

    def _iter_cell(self, name: str, transform: Transform,
                   window: Optional[Tuple[float, float, float, float]],
                   place: Optional[Callable[..., bool]] = None,
                   ) -> Iterator[Tuple[str, float, float, float, float]]:
        """Yield ``(layer, x1, y1, x2, y2)`` chip-space nm rectangles of
        ``name`` under ``transform``, pruned to ``window`` (conservative)
        when one is given.  The flatten path and the memo build are this
        very generator with ``window=None``, so all three compute identical
        floating-point coordinates for every surviving rectangle — the root
        of the bit-for-bit hierarchical == flattened guarantee.

        ``place(cell, a, b, c, d, tx, ty, box)`` is offered every placed
        child that touches the window; when it returns true the child is
        painted already and its subtree is not walked.
        """
        grids = self._grids[name]
        if window is None:
            for layer, grid in grids.items():
                for box in grid.boxes:
                    yield (layer, *transform.apply_box(*box))
        else:
            local = transform.invert_box(*window)
            for layer, grid in grids.items():
                for index in grid.query(*local):
                    chip = transform.apply_box(*grid.boxes[index])
                    if _boxes_intersect(chip, window):
                        yield (layer, *chip)
        ta, tb, tc, td, ttx, tty = transform
        for instance in self._instances[name]:
            cell_box = self._bboxes[instance.cell]
            if cell_box is None:
                continue
            # Constants of this (instance, parent transform), shared by
            # every array element: the composed linear part and the child's
            # box under it.  Windows, the digest and the flatten oracle all
            # run this one walk, so each expression has a single operation
            # order and no coordinate moves a bit between them.
            la, lb, lc, ld = instance.linear
            a, b = ta * la + tb * lc, ta * lb + tb * ld
            c, d = tc * la + td * lc, tc * lb + td * ld
            ox, oy = instance.origin
            cvx, cvy = instance.column_vector
            rvx, rvy = instance.row_vector
            if window is None:
                candidates: Iterable[Tuple[int, int]] = (
                    (column, row) for column in range(instance.columns)
                    for row in range(instance.rows))
            else:
                # Rounded addition is monotonic, so the min / max of the two
                # translated corners is the translated min / max.
                x1, y1, x2, y2 = cell_box
                px, py = a * x1 + b * y1, c * x1 + d * y1
                qx, qy = a * x2 + b * y2, c * x2 + d * y2
                low_x, high_x = min(px, qx), max(px, qx)
                low_y, high_y = min(py, qy), max(py, qy)
                tx, ty = ta * ox + tb * oy + ttx, tc * ox + td * oy + tty
                candidates = self._element_indices(
                    instance, (ta * cvx + tb * cvy, tc * cvx + td * cvy),
                    (ta * rvx + tb * rvy, tc * rvx + td * rvy),
                    (low_x + tx, low_y + ty, high_x + tx, high_y + ty),
                    window)
            for column, row in candidates:
                ex = ox + column * cvx + row * rvx
                ey = oy + column * cvy + row * rvy
                tx, ty = ta * ex + tb * ey + ttx, tc * ex + td * ey + tty
                if window is not None:
                    box = (low_x + tx, low_y + ty, high_x + tx, high_y + ty)
                    if not _boxes_intersect(box, window):
                        continue
                    if place is not None and place(instance.cell, a, b, c, d,
                                                   tx, ty, box):
                        continue
                yield from self._iter_cell(
                    instance.cell, Transform(a, b, c, d, tx, ty), window,
                    place)

    # -------------------------------------------------------------- #
    # memoised placed-cell rasters
    # -------------------------------------------------------------- #
    def _compute_lattice(self) -> Dict[str, Optional[Tuple[float, float]]]:
        """Per cell ``(reach, finest)``: a bound on the magnitude of every
        coordinate and intermediate translation of the cell's flattened
        subtree in its own frame, and the smallest cumulative magnification
        inside it — or ``None`` when some input of the subtree (a rectangle
        coordinate, a placement origin or step, a magnification) or the
        pixel size is off the dyadic lattice of the module docstring, which
        sends every placement of the cell down the per-rectangle path."""
        lattice: Dict[str, Optional[Tuple[float, float]]] = {}
        pixel = self.pixel_size_nm
        if not (_is_power_of_two(pixel)
                and _LATTICE_MIN_SCALE <= pixel <= _LATTICE_SCALE):
            return dict.fromkeys(self.library.cells)

        def resolve(name: str) -> Optional[Tuple[float, float]]:
            if name in lattice:
                return lattice[name]
            values = [value for grid in self._grids[name].values()
                      for box in grid.boxes for value in box]
            reach, finest = 0.0, 1.0
            for instance in self._instances[name]:
                child = resolve(instance.cell)
                scale = max(map(abs, instance.linear))
                if child is None or not _is_power_of_two(scale):
                    reach = math.inf
                    break
                values += (*instance.origin, *instance.column_vector,
                           *instance.row_vector)
                element = max(
                    abs(origin) + instance.columns * abs(column_step)
                    + instance.rows * abs(row_step)
                    for origin, column_step, row_step in zip(
                        instance.origin, instance.column_vector,
                        instance.row_vector))
                reach = max(reach, element + scale * child[0])
                finest = min(finest, scale * child[1])
            reach = max([reach, *map(abs, values)])
            on_lattice = reach <= _LATTICE_LIMIT and all(
                map(_on_lattice, values))
            lattice[name] = (reach, finest) if on_lattice else None
            return lattice[name]

        # Only placed cells are ever looked up: the top cell's own (usually
        # most numerous) rectangles need no check.
        for instances in self._instances.values():
            for instance in instances:
                resolve(instance.cell)
        return lattice

    def _placed_raster(self, cell: str, a: float, b: float, c: float,
                       d: float, tx: float, ty: float,
                       box: Tuple[float, float, float, float],
                       ) -> Optional[Tuple[np.ndarray, int, int]]:
        """The memoised raster of ``cell`` placed by ``Transform(a, b, c, d,
        tx, ty)`` and the chip pixel ``(row, column)`` of its ``[0, 0]`` —
        or ``None`` when this placement is not eligible (module docstring)
        and must take the per-rectangle path."""
        lattice = self._lattice[cell]
        pixel = self.pixel_size_nm
        if (lattice is None
                or (box[2] - box[0]) * (box[3] - box[1])
                > MAX_CELL_RASTER_PX * pixel * pixel
                or not (abs(tx) <= _LATTICE_LIMIT
                        and abs(ty) <= _LATTICE_LIMIT)):
            return None
        shift_x, shift_y = math.floor(tx / pixel), math.floor(ty / pixel)
        key = (cell, a, b, c, d, tx - shift_x * pixel, ty - shift_y * pixel)
        entry = self._rasters.get(key)
        if entry is None:
            entry = self._build_raster(key, *lattice)
            if entry is None:
                return None
        raster, row_origin, col_origin = entry
        return raster, row_origin + shift_y, col_origin + shift_x

    def _build_raster(self, key, reach: float, finest: float,
                      ) -> Optional[Tuple[np.ndarray, int, int]]:
        """Rasterise one memo key — a cell, a linear part and a sub-pixel
        translation phase — through the per-rectangle path, unclipped, at
        the whole-pixel shift that puts its hull at the raster origin."""
        cell, a, b, c, d, phase_x, phase_y = key
        scale = max(abs(a), abs(b), abs(c), abs(d))
        if not (_is_power_of_two(scale)
                and scale * finest >= _LATTICE_MIN_SCALE
                and scale * reach <= _LATTICE_LIMIT
                and _on_lattice(phase_x) and _on_lattice(phase_y)):
            return None
        pixel = self.pixel_size_nm
        x1, y1, x2, y2 = Transform(a, b, c, d, phase_x, phase_y).apply_box(
            *self._bboxes[cell])
        col_origin, row_origin = math.floor(x1 / pixel), math.floor(y1 / pixel)
        width = math.ceil(x2 / pixel) - col_origin
        height = math.ceil(y2 / pixel) - row_origin
        cost = height * width + _MEMO_ENTRY_BYTES
        if (height * width > MAX_CELL_RASTER_PX
                or self._raster_bytes + cost > MEMO_BUDGET_BYTES):
            return None
        raster = np.zeros((height, width), dtype=np.uint8)
        origin = Transform(a, b, c, d, phase_x - col_origin * pixel,
                           phase_y - row_origin * pixel)
        for _, x1, y1, x2, y2 in self._iter_cell(cell, origin, None):
            row0, row1 = _pixel_interval(y1, y2, pixel, height)
            col0, col1 = _pixel_interval(x1, x2, pixel, width)
            if row1 > row0 and col1 > col0:
                raster[row0:row1, col0:col1] = 1
        raster.setflags(write=False)
        entry = (raster, row_origin, col_origin)
        with self._memo_lock:
            # Two threads may have built the same key; a thread that lost
            # the race for the last of the budget paints its own copy once.
            existing = self._rasters.get(key)
            if existing is not None:
                return existing
            if self._raster_bytes + cost <= MEMO_BUDGET_BYTES:
                self._rasters[key] = entry
                self._raster_bytes += cost
        return entry

    # -------------------------------------------------------------- #
    # the reader protocol
    # -------------------------------------------------------------- #
    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def pixel_size_nm(self) -> float:
        return self._pixel_size_nm

    @property
    def layers(self) -> Tuple[str, ...]:
        """Layers :meth:`read_window` rasterises (read-only, like every
        input of a window)."""
        return self._layers

    def read_window(self, row: int, col: int, height: int,
                    width: int) -> np.ndarray:
        if height <= 0 or width <= 0:
            raise ValueError("window dimensions must be positive")
        out = np.zeros((height, width), dtype=np.uint8)
        layout_h, layout_w = self._shape
        row0, col0 = max(row, 0), max(col, 0)
        row1 = min(row + height, layout_h)
        col1 = min(col + width, layout_w)
        if row1 <= row0 or col1 <= col0:
            self.last_candidates = 0
            return out
        # Counted in a local and published once: threads may read windows
        # of one reader at the same time.
        candidates = 0
        pixel = self.pixel_size_nm
        pad = 0.5 * pixel + 1e-9  # pixel-centre sampling slack
        window = (col0 * pixel - pad, row0 * pixel - pad,
                  col1 * pixel + pad, row1 * pixel + pad)

        def place(cell, a, b, c, d, tx, ty, box) -> bool:
            """OR the memoised raster of a placed cell into the window."""
            nonlocal candidates
            placed = self._placed_raster(cell, a, b, c, d, tx, ty, box)
            if placed is None:
                return False
            candidates += 1
            raster, raster_row, raster_col = placed
            top = max(raster_row, row0)
            bottom = min(raster_row + raster.shape[0], row1)
            left = max(raster_col, col0)
            right = min(raster_col + raster.shape[1], col1)
            if bottom > top and right > left:
                target = out[top - row:bottom - row, left - col:right - col]
                np.bitwise_or(target, raster[top - raster_row:
                                             bottom - raster_row,
                                             left - raster_col:
                                             right - raster_col], out=target)
            return True

        for _, x1, y1, x2, y2 in self._iter_cell(
                self._top, Transform.identity(), window, place):
            candidates += 1
            rect_row0, rect_row1 = _pixel_interval(y1, y2, pixel, layout_h)
            rect_col0, rect_col1 = _pixel_interval(x1, x2, pixel, layout_w)
            top = max(rect_row0, row0)
            bottom = min(rect_row1, row1)
            left = max(rect_col0, col0)
            right = min(rect_col1, col1)
            if bottom > top and right > left:
                out[top - row:bottom - row, left - col:right - col] = 1
        self.last_candidates = candidates
        return out

    def digest(self) -> str:
        """Canonical campaign identity — **equal to the digest of the
        flattened** :class:`~repro.layout.indexed.GeometryLayoutReader`.

        The flattened rectangles' clipped pixel intervals are hashed by the
        one canonical :func:`~repro.layout.indexed.layout_digest`, so whether
        a campaign loads
        the hierarchical ``.gds`` or a pre-flattened equivalent, the store
        sees one identity.  Computed once and cached (the walk enumerates
        every placed rectangle; windows never pay this cost).
        """
        if self._digest is not None:
            return self._digest
        height, width = self._shape
        pixel = self.pixel_size_nm
        intervals: Dict[str, set] = {layer: set() for layer in self.layers}
        for layer, x1, y1, x2, y2 in self._iter_cell(
                self._top, Transform.identity(), None):
            row0, row1 = _pixel_interval(y1, y2, pixel, height)
            col0, col1 = _pixel_interval(x1, x2, pixel, width)
            if row1 > row0 and col1 > col0:
                intervals[layer].add((row0, row1, col0, col1))
        self._digest = layout_digest(
            self._shape, pixel,
            ((layer, intervals[layer]) for layer in self.layers))
        return self._digest

    # -------------------------------------------------------------- #
    # conveniences
    # -------------------------------------------------------------- #
    def flatten_shapes(self) -> Dict[str, List]:
        """Flatten the hierarchy to chip-space rectangles per layer (the
        dense-equivalence witness; same float arithmetic as the window
        walk)."""
        shapes: Dict[str, List] = {}
        for layer, x1, y1, x2, y2 in self._iter_cell(
                self._top, Transform.identity(), None):
            shapes.setdefault(layer, []).append(
                Rect(x1, y1, x2 - x1, y2 - y1))
        return shapes

    def flatten(self):
        """The dense-flatten reference reader
        (:class:`~repro.layout.indexed.GeometryLayoutReader` over
        :meth:`flatten_shapes`) — used by the conformance tests to pin
        hierarchical == flattened bit for bit."""
        from .indexed import GeometryLayoutReader

        return GeometryLayoutReader(self.flatten_shapes(),
                                    self.pixel_size_nm, shape=self._shape)
