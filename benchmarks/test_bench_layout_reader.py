"""Micro-benchmark — bucket-grid window queries vs full rasterisation.

The claim of :class:`repro.layout.GeometryLayoutReader` is that rasterising
one tile-sized window costs O(window), not O(layout): the bucket grid hands
a query only the shapes near it, while the pre-reader path had to rasterise
the **whole** layout before the first tile could be sliced.  This benchmark
builds geometry layouts of growing area at constant shape density and
measures, per size,

* the mean wall-clock of an indexed tile-window query (and the candidate
  shapes it touched — the structural O(window) witness: it must stay flat
  while the layout grows),
* the wall-clock of the full dense rasterisation the old path needed, and
* ``window_speedup`` — full rasterisation / one window query at the largest
  size — recorded as the gated metric.

Sublinearity assertion: when the layout area grows ``G``x, the indexed
window query must grow strictly slower (< ``G/2``x wall-clock, candidates
within 3x of flat).  Results land in
``benchmarks/results/layout_reader.{txt,json}``.
"""

import os
import time

import numpy as np

from repro.layout import GeometryLayoutReader
from repro.layout.geometry import Rect
from repro.masks.layout import Layout

PIXEL_NM = 4.0
WINDOW_PX = 128          # one tile-sized query
QUERIES = 64             # averaged per size
#: Raster side (px) per size step, preset-scaled; density is constant
#: (one ~24x24 px shape per 32x32 px cell), so shape count grows with area.
SIDES = {"tiny": (512, 1024, 2048), "small": (1024, 2048, 4096),
         "default": (2048, 4096, 8192)}


def build_geometry(side_px: int, seed: int = 0) -> GeometryLayoutReader:
    """Constant-density random Manhattan metal over a ``side_px`` raster."""
    rng = np.random.default_rng(seed)
    extent = side_px * PIXEL_NM
    cells = side_px // 32
    layout = Layout(extent_nm=extent)
    for row in range(cells):
        for col in range(cells):
            x = col * 32 * PIXEL_NM + rng.uniform(0, 8 * PIXEL_NM)
            y = row * 32 * PIXEL_NM + rng.uniform(0, 8 * PIXEL_NM)
            w = rng.uniform(12, 24) * PIXEL_NM
            h = rng.uniform(12, 24) * PIXEL_NM
            layout.add("m1", Rect(x, y, w, h))
    return GeometryLayoutReader.from_layout(layout,
                                            shape=(side_px, side_px))


def time_window_queries(reader: GeometryLayoutReader,
                        seed: int = 1) -> dict:
    rng = np.random.default_rng(seed)
    side = reader.shape[0]
    origins = rng.integers(0, max(side - WINDOW_PX, 1), size=(QUERIES, 2))
    candidates = 0
    start = time.perf_counter()
    for row, col in origins:
        reader.read_window(int(row), int(col), WINDOW_PX, WINDOW_PX)
        candidates += reader.last_candidates
    elapsed = time.perf_counter() - start
    return {"mean_seconds": elapsed / QUERIES,
            "mean_candidates": candidates / QUERIES}


def time_full_raster(reader: GeometryLayoutReader) -> float:
    start = time.perf_counter()
    reader.materialise()
    return time.perf_counter() - start


def test_window_query_sublinear(preset, record_output, record_json):
    sides = SIDES.get(preset, SIDES["default"])
    rows = []
    for side in sides:
        reader = build_geometry(side)
        window = time_window_queries(reader)
        rows.append({
            "side_px": side,
            "shapes": reader.shape_count(),
            "window_mean_seconds": window["mean_seconds"],
            "window_mean_candidates": window["mean_candidates"],
            "full_raster_seconds": time_full_raster(reader),
        })

    growth = (sides[-1] / sides[0]) ** 2          # area (= shape) growth
    time_growth = (rows[-1]["window_mean_seconds"]
                   / max(rows[0]["window_mean_seconds"], 1e-9))
    candidate_growth = (rows[-1]["window_mean_candidates"]
                        / max(rows[0]["window_mean_candidates"], 1e-9))
    speedup = (rows[-1]["full_raster_seconds"]
               / max(rows[-1]["window_mean_seconds"], 1e-9))

    lines = [
        f"bucket-grid window queries vs full rasterisation "
        f"({WINDOW_PX} px windows, {QUERIES} queries/size, "
        f"pixel {PIXEL_NM} nm, constant shape density)",
        f"{'side_px':>8} {'shapes':>8} {'window_ms':>10} "
        f"{'candidates':>11} {'full_raster_s':>14}",
    ]
    for row in rows:
        lines.append(
            f"{row['side_px']:>8} {row['shapes']:>8} "
            f"{row['window_mean_seconds'] * 1e3:>10.3f} "
            f"{row['window_mean_candidates']:>11.1f} "
            f"{row['full_raster_seconds']:>14.3f}")
    lines += [
        f"layout area grew {growth:.0f}x -> window query time grew "
        f"{time_growth:.2f}x, candidates grew {candidate_growth:.2f}x",
        f"one window query vs full rasterisation at {sides[-1]} px: "
        f"{speedup:.1f}x faster",
    ]
    record_output("layout_reader", "\n".join(lines))
    record_json("layout_reader", {
        "op": "layout_reader_window_query",
        "window_px": WINDOW_PX,
        "queries_per_size": QUERIES,
        "pixel_size_nm": PIXEL_NM,
        "sizes": rows,
        "area_growth": growth,
        "window_time_growth": time_growth,
        "window_candidate_growth": candidate_growth,
        "window_speedup": speedup,
        "cpus": os.cpu_count(),
    })

    # O(window) witnesses: candidates stay ~flat as the layout grows, and
    # wall-clock grows far slower than the layout (loose CI-safe floors —
    # the recorded trajectory carries the precise signal).
    assert candidate_growth < 3.0, (
        f"window candidates grew {candidate_growth:.2f}x over a {growth:.0f}x "
        f"layout — the bucket grid is no longer O(window)")
    assert time_growth < growth / 2, (
        f"window query time grew {time_growth:.2f}x over a {growth:.0f}x "
        f"layout — sublinearity lost")
    assert speedup > 1.0
