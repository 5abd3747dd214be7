#!/usr/bin/env python
"""Regenerate the golden binary-GDSII fixtures under ``tests/data/``.

The fixtures are committed, not generated at test time, so the conformance
suite exercises the *parser* against byte streams that cannot silently
co-evolve with the emitter.  ``write_gds`` is deterministic (zeroed
timestamps, canonical record order), so rerunning this script after an
emitter change shows the byte-level diff in review.

Fixtures::

    flat_boundaries.gds   one cell, rectilinear polygons on two layers
    hier4.gds             5-level SREF/AREF hierarchy (UNIT -> PAIR -> ROW
                          -> BLOCK -> CHIP) with rotation, reflection,
                          magnification and 2-D arrays
    aref_grid.gds         an 8 x 8 AREF of one 256 nm cell whose pitch
                          matches a 32 px tile at 8 nm/px — the tile-cache
                          synergy case (every tile identical)
    units_fine.gds        same geometry as flat_boundaries at a 0.5 nm
                          database unit (coordinates double, layout equal)
    units_offgrid.gds     a small AREF hierarchy at a 0.1 nm database unit
                          with a 1.1x placement — off the dyadic lattice, so
                          the hierarchical reader memoises no cell raster
                          and every rectangle takes the per-rectangle path

Usage::

    PYTHONPATH=src python tools/make_gds_fixtures.py [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.layout.gdsii import (  # noqa: E402  (path bootstrap above)
    GDSBoundary,
    GDSCell,
    GDSReference,
    write_gds,
)


def _rect(layer, x, y, w, h):
    return GDSBoundary(layer, ((x, y), (x + w, y), (x + w, y + h),
                               (x, y + h)))


def flat_boundaries_cells(scale: int = 1):
    """One flat cell: rectangles plus an L-shaped rectilinear polygon."""
    s = scale
    ell = GDSBoundary(2, ((40 * s, 8 * s), (72 * s, 8 * s), (72 * s, 24 * s),
                          (56 * s, 24 * s), (56 * s, 56 * s),
                          (40 * s, 56 * s)))
    cell = GDSCell("FLAT", boundaries=[
        _rect(1, 8 * s, 8 * s, 24 * s, 16 * s),
        _rect(1, 8 * s, 32 * s, 24 * s, 24 * s),
        ell,
    ], references=[])
    return {"FLAT": cell}


def hier4_cells():
    """Five levels: UNIT -> PAIR -> ROW -> BLOCK -> CHIP.

    Every transform the parser supports appears somewhere: plain SREF,
    rotated SREF, reflected SREF, magnified SREF, 1-D AREF, 2-D AREF.
    """
    unit = GDSCell("UNIT", boundaries=[
        _rect(1, 0, 0, 24, 8),
        _rect(1, 0, 16, 8, 16),
    ], references=[])
    pair = GDSCell("PAIR", boundaries=[], references=[
        GDSReference("UNIT", (0, 0)),
        GDSReference("UNIT", (64, 32), quarter_turns=2),
    ])
    row = GDSCell("ROW", boundaries=[_rect(2, 0, 40, 200, 8)], references=[
        GDSReference("PAIR", (0, 0), columns=3, rows=1,
                     column_vector=(72, 0), row_vector=(0, 0)),
    ])
    block = GDSCell("BLOCK", boundaries=[], references=[
        GDSReference("ROW", (0, 0)),
        GDSReference("ROW", (0, 120), reflect=True),
        GDSReference("UNIT", (224, 0), quarter_turns=1),
        GDSReference("UNIT", (224, 80), mag=2.0),
    ])
    chip = GDSCell("CHIP", boundaries=[_rect(3, 0, 296, 560, 16)],
                   references=[
        GDSReference("BLOCK", (8, 8), columns=2, rows=2,
                     column_vector=(288, 0), row_vector=(0, 144)),
    ])
    return {cell.name: cell for cell in (unit, pair, row, block, chip)}


def aref_grid_cells():
    """8 x 8 array of one 256 nm cell; pitch == content period == one tile."""
    # Content spans the full 256 nm pitch so the array's default raster is
    # exactly 8 tiles of 32 px per side — every tile identical.
    checker = GDSCell("CHECKER", boundaries=[
        _rect(1, 32, 32, 96, 96),
        _rect(1, 144, 144, 112, 112),
        _rect(1, 144, 32, 80, 48),
    ], references=[])
    grid = GDSCell("GRID", boundaries=[], references=[
        GDSReference("CHECKER", (0, 0), columns=8, rows=8,
                     column_vector=(256, 0), row_vector=(0, 256)),
    ])
    return {"CHECKER": checker, "GRID": grid}


def units_offgrid_cells():
    """TOP <- 4 x 3 AREF of PAIR <- two LEAFs, in 0.1 nm database units."""
    leaf = GDSCell("LEAF", boundaries=[
        _rect(1, 0, 0, 333, 127),
        _rect(2, 405, 55, 128, 301),
    ], references=[])
    pair = GDSCell("PAIR", boundaries=[], references=[
        GDSReference("LEAF", (0, 0)),
        GDSReference("LEAF", (1111, 703), mag=1.1, quarter_turns=1),
    ])
    top = GDSCell("TOP", boundaries=[_rect(1, 57, 3555, 4801, 99)],
                  references=[
        GDSReference("PAIR", (57, 93), columns=4, rows=3,
                     column_vector=(1237, 0), row_vector=(0, 1111)),
    ])
    return {cell.name: cell for cell in (leaf, pair, top)}


FIXTURES = {
    "flat_boundaries.gds": lambda: write_gds(flat_boundaries_cells(),
                                             unit_nm=1.0, name="FLATLIB"),
    "hier4.gds": lambda: write_gds(hier4_cells(), unit_nm=1.0,
                                   name="HIER4LIB"),
    "aref_grid.gds": lambda: write_gds(aref_grid_cells(), unit_nm=1.0,
                                       name="AREFLIB"),
    # 0.5 nm database unit: database coordinates double, nm geometry equal.
    "units_fine.gds": lambda: write_gds(flat_boundaries_cells(scale=2),
                                        unit_nm=0.5, name="FINELIB"),
    "units_offgrid.gds": lambda: write_gds(units_offgrid_cells(), unit_nm=0.1,
                                           name="OFFGRIDLIB"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir",
                        default=os.path.join(os.path.dirname(__file__), "..",
                                             "tests", "data"))
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, build in FIXTURES.items():
        path = os.path.join(args.out_dir, name)
        data = build()
        with open(path, "wb") as handle:
            handle.write(data)
        print(f"wrote {path} ({len(data)} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
