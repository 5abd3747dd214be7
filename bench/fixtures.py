"""Seeded inputs for the end-to-end benchmark.

Every layout the benchmark images is generated here, in set-up, from the
``--seed`` argument; the program under test only ever receives the generated
arrays / ``.gds`` files.  The same seed gives the same bytes.

The ``.gds`` chips are an N x N grid of cell instances at a pitch equal to
the *guard-banded tile core* of the production tiling (tile 256 px, guard =
one kernel window), so repeated cells really deduplicate in the tile-result
cache: a pitch that is not a multiple of the core (1024 nm, say) puts every
tile at a different phase of the cell and dedups nothing.  The pitch is
derived from ``default_guard_px`` rather than hard-coded, so it follows the
real tile core if the optics or the guard rule change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

#: Layer every benchmark rectangle is drawn on.
LAYER = 1
#: Distinct repeated cells on a chip, and rectangles drawn in each.
CELL_KINDS = 4
RECTS_PER_CELL = 14
#: Coordinates snap to this grid (nm) — the raster pitch, so rasterising a
#: chip never depends on sub-pixel rounding.
GRID_NM = 4
#: Drawn rectangle sides (nm): wide enough to print at the nominal dose.
MIN_SIDE_NM, MAX_SIDE_NM = 48, 320
#: The four synthetic layouts the service clients cycle through.
SERVICE_SEED_COUNT = 4


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark run (full scale, or ``--smoke``)."""

    raster_px: int = 1024        # dense_chip / dense_chip_pool2 raster side
    repeat_cells: int = 10       # N of chipN.gds imaged by gds_repeat_*
    campaign_cells: int = 6      # N of chipN.gds swept by campaign_cli
    service_px: int = 1024       # synthetic raster side swept by the service
    focus_nm: Tuple[float, ...] = (-40.0, 0.0, 40.0)
    dose: Tuple[float, ...] = (0.95, 1.0, 1.05)


FULL = Sizes()
SMOKE = Sizes(raster_px=512, repeat_cells=4, campaign_cells=4,
              service_px=512, focus_nm=(0.0, 40.0), dose=(1.0, 1.05))


def bench_optics():
    """The optics every workload images with (the paper's 193i setting)."""
    from repro.optics.simulator import OpticsConfig

    return OpticsConfig(wavelength_nm=193.0, numerical_aperture=1.35,
                        pixel_size_nm=4.0, tile_size_px=256)


def tile_core_px(optics) -> int:
    """Interior pixels of one production tile: tile minus two default guards."""
    from repro.core.kernel_dims import kernel_dimensions
    from repro.engine import default_guard_px

    kernel_shape = kernel_dimensions(
        optics.tile_size_px, optics.tile_size_px,
        wavelength_nm=optics.wavelength_nm,
        numerical_aperture=optics.numerical_aperture,
        pixel_size_nm=optics.pixel_size_nm)
    return optics.tile_size_px - 2 * default_guard_px(kernel_shape,
                                                      optics.tile_size_px)


def dense_raster(seed: int, side_px: int, optics) -> np.ndarray:
    """A non-repeating routed-metal (B2m) raster: every tile is distinct."""
    from repro.layout.sources import synthesize_layout_mask

    return synthesize_layout_mask(side_px, side_px, optics.tile_size_px,
                                  optics.pixel_size_nm, "B2m", seed)


def service_seeds(seed: int) -> List[int]:
    """The synthetic-layout seeds the service clients cycle through."""
    return [seed * SERVICE_SEED_COUNT + index
            for index in range(SERVICE_SEED_COUNT)]


def _random_rects(rng: np.random.Generator, count: int, x0: int, y0: int,
                  span_nm: int) -> List[Tuple[int, int, int, int]]:
    """``count`` Manhattan rectangles ``(x, y, w, h)`` inside one pitch box."""
    rects = []
    steps = span_nm // GRID_NM
    low, high = MIN_SIDE_NM // GRID_NM, MAX_SIDE_NM // GRID_NM
    for _ in range(count):
        # Long thin wires, either orientation — like routed metal.
        long_side = int(rng.integers(low * 2, high + 1))
        short_side = int(rng.integers(low, low * 2 + 1))
        w, h = (long_side, short_side) if rng.random() < 0.5 \
            else (short_side, long_side)
        x = int(rng.integers(0, steps - w + 1))
        y = int(rng.integers(0, steps - h + 1))
        rects.append((x0 + x * GRID_NM, y0 + y * GRID_NM,
                      w * GRID_NM, h * GRID_NM))
    return rects


def chip_cells(cells_per_side: int, seed: int, pitch_nm: int) -> Dict:
    """The cell graph of an ``N x N`` chip (``repro.layout`` GDS dataclasses).

    Rows ``0 .. N - N//5 - 1`` are instances of :data:`CELL_KINDS` distinct
    cells, placed as 2-D AREFs in equal bands (one cell kind per band, so a
    band's interior tiles are byte-identical); the top ``N // 5`` rows are
    unique flat rectangles that never repeat.
    """
    from repro.layout.gdsii import GDSBoundary, GDSCell, GDSReference

    def boundary(rect):
        x, y, w, h = rect
        return GDSBoundary(LAYER, ((x, y), (x + w, y), (x + w, y + h),
                                   (x, y + h)))

    rng = np.random.default_rng([int(seed), int(cells_per_side)])
    n = int(cells_per_side)
    flat_rows = max(1, n // 5)
    cell_rows = n - flat_rows
    bands = min(CELL_KINDS, cell_rows)
    cells = {}
    for kind in range(bands):  # an unplaced cell would be a second top cell
        name = f"CELL{kind}"
        cells[name] = GDSCell(name, boundaries=[
            boundary(rect) for rect in
            _random_rects(rng, RECTS_PER_CELL, 0, 0, pitch_nm)],
            references=[])
    references = []
    row = 0
    for band in range(bands):
        rows = cell_rows // bands + (1 if band < cell_rows % bands else 0)
        references.append(GDSReference(
            f"CELL{band}", (0, row * pitch_nm),
            columns=n, rows=rows,
            column_vector=(pitch_nm, 0), row_vector=(0, pitch_nm)))
        row += rows
    flat = []
    for flat_row in range(cell_rows, n):
        for col in range(n):
            flat.extend(boundary(rect) for rect in _random_rects(
                rng, RECTS_PER_CELL, col * pitch_nm, flat_row * pitch_nm,
                pitch_nm))
    # One corner marker pins the bounding box — hence the default raster
    # shape — to exactly N pitches whatever the random rectangles do.
    corner = n * pitch_nm
    flat.append(boundary((corner - MIN_SIDE_NM, corner - MIN_SIDE_NM,
                          MIN_SIDE_NM, MIN_SIDE_NM)))
    cells["CHIP"] = GDSCell("CHIP", boundaries=flat, references=references)
    return cells


def write_chip(path: str, cells_per_side: int, seed: int, optics) -> int:
    """Write ``chipN.gds`` with the public emitter; returns its byte size."""
    from repro.layout.gdsii import write_gds

    pitch_nm = int(round(tile_core_px(optics) * optics.pixel_size_nm))
    data = write_gds(chip_cells(cells_per_side, seed, pitch_nm), path,
                     unit_nm=1.0, name=f"BENCH{cells_per_side}")
    return len(data)


#: Accepted share of unique tiles on a cold pass over a benchmark chip.
UNIQUE_SHARE_RANGE = (0.25, 0.60)


def check_unique_share(unique_tiles: int, tiles: int) -> float:
    """Fail loudly when a chip does not deduplicate the way it was built to.

    A fixture whose repeats silently stop sharing tile content (a pitch that
    drifted off the tile core, say) would turn ``gds_repeat_*`` into a second
    ``dense_chip`` without anybody noticing; refuse to benchmark it.
    """
    low, high = UNIQUE_SHARE_RANGE
    share = unique_tiles / tiles
    if not low <= share <= high:
        raise RuntimeError(
            f"chip fixture images {unique_tiles} unique tiles of {tiles} "
            f"(share {share:.3f}); expected {low}..{high} — the cell pitch "
            f"no longer matches the guard-banded tile core")
    return share
