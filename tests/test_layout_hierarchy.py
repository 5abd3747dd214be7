"""Hierarchical GDSII reader (repro.layout.hierarchy): conformance suite.

The headline invariant: a :class:`HierarchicalLayoutReader` over a cell
graph is **bit-for-bit** equal to the dense flatten of that graph — every
window, one share and shares, every precision (float64 / float32),
serial and sharded, in-memory and streaming — and shares the flat reader's
canonical digest (campaign identity), while never materialising the flat
raster or expanding instance arrays eagerly.  Plus the PR's synergy
payoff: an AREF array of one cell images exactly one unique tile through
the tile-result cache.
"""

import glob
import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    assert_ran_on_shares,
    reference_image_layout,
    stream_batches,
    threads_seen,
)
from repro.backend import ComputeConfig
from repro.engine import (
    EngineSpec,
    ExecutionEngine,
    ShardedExecutor,
    TileResultCache,
)
from repro.engine import tile_cache as tile_cache_module
from repro.layout import (
    GeometryLayoutReader,
    HierarchicalLayoutReader,
    LayoutFormatError,
    load_layout_file,
    is_layout_reader,
    write_gds,
)
from repro.layout import hierarchy as hierarchy_module
from repro.layout.gdsii import GDSBoundary, GDSCell, GDSReference, parse_gds
from repro.layout.hierarchy import Transform
from repro.optics.simulator import OpticsConfig

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
HIER4 = os.path.join(DATA_DIR, "hier4.gds")
AREF_GRID = os.path.join(DATA_DIR, "aref_grid.gds")
GDS_FIXTURES = sorted(glob.glob(os.path.join(DATA_DIR, "*.gds")))

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)


@pytest.fixture(scope="module")
def hier_reader() -> HierarchicalLayoutReader:
    return load_layout_file(HIER4, pixel_size_nm=8.0)


@pytest.fixture(scope="module")
def hier_flat(hier_reader) -> GeometryLayoutReader:
    return hier_reader.flatten()


@pytest.fixture(scope="module")
def hier_dense(hier_flat) -> np.ndarray:
    return hier_flat.read_window(0, 0, *hier_flat.shape)


def _placements(library, name: str) -> int:
    """Placed cell copies under ``name``, itself included (arrays expanded
    arithmetically)."""
    return 1 + sum(reference.count * _placements(library, reference.cell)
                   for reference in library.cells[name].references)


def _depth(library, name: str) -> int:
    """Levels of the placement tree under (and including) ``name``."""
    return 1 + max((_depth(library, reference.cell)
                    for reference in library.cells[name].references),
                   default=0)


def _rect(layer, x, y, w, h):
    return GDSBoundary(layer, ((x, y), (x + w, y), (x + w, y + h),
                               (x, y + h)))


class TestTransform:
    @pytest.mark.parametrize("quarter_turns,reflect,mag", [
        (0, False, 1.0), (1, False, 1.0), (2, True, 2.0), (3, True, 0.5),
    ])
    def test_place_matches_matrix_model(self, quarter_turns, reflect, mag):
        """reflect about x, then magnify, then rotate, then translate."""
        theta = quarter_turns * np.pi / 2.0
        rotation = np.array([[np.cos(theta), -np.sin(theta)],
                             [np.sin(theta), np.cos(theta)]])
        flip = np.diag([1.0, -1.0 if reflect else 1.0])
        matrix = rotation @ (mag * flip)
        placed = Transform.place(5.0, -3.0, mag=mag,
                                 quarter_turns=quarter_turns,
                                 reflect=reflect)
        for point in ((1.0, 0.0), (0.0, 1.0), (2.5, -7.0)):
            expected = matrix @ np.array(point) + np.array([5.0, -3.0])
            np.testing.assert_allclose(placed.apply(*point), expected,
                                       atol=1e-12)

    def test_box_maps_are_consistent(self):
        transform = Transform.place(7.0, -2.0, mag=3.0, quarter_turns=3,
                                    reflect=True)
        box = (1.0, 2.0, 4.0, 8.0)
        forward = transform.apply_box(*box)
        np.testing.assert_allclose(transform.invert_box(*forward), box,
                                   atol=1e-9)

    def test_nested_placements_compose_as_functions(self):
        """A shape two references deep lands where the outer placement
        maps the inner placement's image of it."""
        cells = {
            "CHILD": GDSCell("CHILD", [_rect(1, 0, 0, 8, 4)], []),
            "MID": GDSCell("MID", [], [GDSReference(
                "CHILD", (-2, 6), mag=2.0, reflect=True)]),
            "TOP": GDSCell("TOP", [], [GDSReference(
                "MID", (10, 4), quarter_turns=1)]),
        }
        reader = HierarchicalLayoutReader(
            parse_gds(write_gds(cells), name="nested"), pixel_size_nm=2.0)
        outer = Transform.place(10.0, 4.0, quarter_turns=1)
        inner = Transform.place(-2.0, 6.0, mag=2.0, reflect=True)
        corners = [outer.apply(*inner.apply(*point))
                   for point in ((0.0, 0.0), (8.0, 0.0), (8.0, 4.0),
                                 (0.0, 4.0))]
        xs, ys = zip(*corners)
        rect, = reader.flatten_shapes()["1"]
        assert (rect.x, rect.y, rect.x2, rect.y2) == (
            min(xs), min(ys), max(xs), max(ys))


class TestHierarchyResolution:
    def test_loads_as_reader(self, hier_reader):
        assert isinstance(hier_reader, HierarchicalLayoutReader)
        assert is_layout_reader(hier_reader)
        library = hier_reader.library
        assert _depth(library, "CHIP") >= 4    # the >= 4-level fixture
        assert len(library.cells) == 5
        assert library.top_cells == ("CHIP",)
        # 4 BLOCKs x (2 ROWs x (3 PAIRs x 2 UNITs + 3 PAIRs) + 2 UNITs
        # + 2 ROWs + 1 BLOCK) + ... : arrays counted arithmetically
        assert _placements(library, "CHIP") == 93

    @given(row=st.integers(-8, 72), col=st.integers(-8, 72),
           height=st.integers(1, 48), width=st.integers(1, 48))
    @settings(max_examples=30, deadline=None)
    def test_any_window_equals_flatten_window(self, hier_reader, hier_flat,
                                              row, col, height, width):
        np.testing.assert_array_equal(
            hier_reader.read_window(row, col, height, width),
            hier_flat.read_window(row, col, height, width))

    def test_materialise_equals_flatten(self, hier_reader, hier_dense):
        np.testing.assert_array_equal(
            hier_reader.read_window(0, 0, *hier_reader.shape), hier_dense)
        assert hier_dense.any()

    def test_digest_parity_with_flatten(self, hier_reader, hier_flat):
        """Hierarchical and flat spellings share one campaign identity."""
        assert hier_reader.digest() == hier_flat.digest()
        finer = load_layout_file(HIER4, pixel_size_nm=4.0)
        assert finer.digest() != hier_reader.digest()

    def test_a_layer_that_draws_nothing_is_no_identity(self, tmp_path):
        """A layer drawn only with a collinear boundary rasterises to
        nothing, so it leaves the digest, and the flatten oracle's, as the
        file without it has them."""
        def digest_pair(name, boundaries):
            path = tmp_path / name
            path.write_bytes(write_gds({"TOP": GDSCell(
                "TOP", [_rect(1, 0, 0, 64, 48), *boundaries], [])}))
            reader = load_layout_file(str(path), pixel_size_nm=8.0)
            return reader.digest(), reader.flatten().digest()

        plain = digest_pair("plain.gds", [])
        drawn = digest_pair("drawn.gds", [GDSBoundary(
            5, ((8, 8), (24, 8), (40, 8)))])
        assert drawn == plain and plain[0] == plain[1]

    def test_window_cost_is_flat_in_instance_count(self):
        """One tile of a 64-instance array paints the few placed cells it
        touches (``last_candidates``: rectangles painted + cell rasters
        blitted), not the whole array — the laziness observable."""
        reader = load_layout_file(AREF_GRID, pixel_size_nm=8.0)
        assert _placements(reader.library, "GRID") == 65  # + 8x8 CHECKERs
        total_rects = 8 * 8 * 3
        reader.read_window(32, 32, 32, 32)
        assert 0 < reader.last_candidates <= 12 < total_rects

    def test_ambiguous_top_cell_is_rejected(self):
        cells = {
            "A": GDSCell("A", [_rect(1, 0, 0, 8, 8)], []),
            "B": GDSCell("B", [_rect(1, 0, 0, 16, 16)], []),
        }
        library = parse_gds(write_gds(cells), name="two_tops")
        with pytest.raises(LayoutFormatError) as excinfo:
            HierarchicalLayoutReader(library, pixel_size_nm=8.0)
        assert excinfo.value.message == (
            "ambiguous top cell: the layout has 2 top cells (A, B) and must "
            "have exactly one; re-export it with a single top cell")

    def test_cycle_detection(self):
        cells = {
            "T": GDSCell("T", [], [GDSReference("A", (0, 0))]),
            "A": GDSCell("A", [_rect(1, 0, 0, 8, 8)],
                         [GDSReference("B", (16, 0))]),
            "B": GDSCell("B", [], [GDSReference("A", (16, 0))]),
        }
        library = parse_gds(write_gds(cells), name="cyclic")
        with pytest.raises(LayoutFormatError, match="cycle"):
            HierarchicalLayoutReader(library, pixel_size_nm=8.0)

    def test_fine_database_unit_is_transparent(self):
        """0.5 nm database units: same nm geometry, same raster, same
        identity as the 1 nm spelling."""
        coarse = load_layout_file(os.path.join(DATA_DIR,
                                               "flat_boundaries.gds"),
                                  pixel_size_nm=4.0)
        fine = load_layout_file(os.path.join(DATA_DIR, "units_fine.gds"),
                                pixel_size_nm=4.0)
        np.testing.assert_array_equal(
            coarse.read_window(0, 0, *coarse.shape),
            fine.read_window(0, 0, *fine.shape))
        assert coarse.digest() == fine.digest()


@st.composite
def cell_hierarchies(draw):
    """Random Manhattan cell graphs: a leaf of rectangles under 1-3 levels
    of SREF / AREF placements with rotation, reflection and magnification.
    Chained so exactly one top cell exists.  Half the cases sit on the
    dyadic lattice (placed cells blit memoised rasters), half off it (0.1 nm
    database unit, 2.5 / 3 nm pixels, magnifications 1.1 / 0.7: every
    rectangle takes the per-rectangle path)."""
    on_lattice = draw(st.booleans())
    magnifications = [1.0, 2.0] if on_lattice else [1.0, 1.1, 0.7]
    levels = draw(st.integers(min_value=1, max_value=3))
    cells = {}
    boundaries = []
    for _ in range(draw(st.integers(1, 3))):
        x = 4 * draw(st.integers(0, 16))
        y = 4 * draw(st.integers(0, 16))
        w = 4 * draw(st.integers(1, 8))
        h = 4 * draw(st.integers(1, 8))
        boundaries.append(_rect(draw(st.integers(1, 2)), x, y, w, h))
    cells["C0"] = GDSCell("C0", boundaries, [])
    for level in range(1, levels + 1):
        references = []
        for index in range(draw(st.integers(1, 3))):
            # the first reference chains to the previous level, so the
            # library keeps a single unreferenced (top) cell
            target = level - 1 if index == 0 else draw(
                st.integers(0, level - 1))
            kwargs = dict(
                mag=draw(st.sampled_from(magnifications)),
                quarter_turns=draw(st.integers(0, 3)),
                reflect=draw(st.booleans()))
            origin = (4 * draw(st.integers(-8, 32)),
                      4 * draw(st.integers(-8, 32)))
            if draw(st.booleans()):
                kwargs.update(
                    columns=draw(st.integers(1, 3)),
                    rows=draw(st.integers(1, 3)),
                    column_vector=(8 * draw(st.integers(1, 12)), 0),
                    row_vector=(0, 8 * draw(st.integers(1, 12))))
            references.append(GDSReference(f"C{target}", origin, **kwargs))
        cells[f"C{level}"] = GDSCell(f"C{level}", [], references)
    if on_lattice:
        unit_nm = draw(st.sampled_from([1.0, 0.5]))
        pixel = draw(st.sampled_from([4.0, 8.0]))
    else:
        unit_nm = 0.1
        pixel = draw(st.sampled_from([2.5, 3.0]))
    return cells, unit_nm, pixel


class TestRoundTripProperty:
    """write_gds -> load_layout_file -> reader == dense flatten, always."""

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("gds_roundtrip")

    @given(data=cell_hierarchies(), index=st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_random_hierarchy_roundtrip(self, out_dir, data, index):
        cells, unit_nm, pixel = data
        path = str(out_dir / f"case_{index}.gds")
        emitted = write_gds(cells, path, unit_nm=unit_nm)
        # byte-stable emitter: parse -> re-emit is the identity
        assert write_gds(parse_gds(path)) == emitted
        try:
            reader = load_layout_file(path, pixel_size_nm=pixel)
        except LayoutFormatError as error:
            # the raster is the top cell's hull from the origin: a top cell
            # whose geometry lies all left of or below it has none
            assert error.message.endswith("has no rasterisable content")
            return
        assert isinstance(reader, HierarchicalLayoutReader)
        flat = reader.flatten()
        np.testing.assert_array_equal(reader.read_window(0, 0, *reader.shape),
                                      flat.read_window(0, 0, *flat.shape))
        assert reader.digest() == flat.digest()
        for row, col, height, width in ((0, 0, 17, 23), (-4, 9, 21, 13),
                                        (30, 30, 30, 30)):
            np.testing.assert_array_equal(
                reader.read_window(row, col, height, width),
                flat.read_window(row, col, height, width))


def _tiled_windows(shape, tile=64, margin=96):
    """Tile-sized windows over the raster and ``margin`` px past every edge
    (negative and past-the-edge origins included)."""
    return [(row, col, tile, tile)
            for row in range(-margin, shape[0] + margin, tile)
            for col in range(-margin, shape[1] + margin, tile)]


class TestWindowsEqualFlatten:
    """Both sides of the reader's one input-decided choice — placed cells
    blitted from memoised rasters (dyadic lattice) or every rectangle down
    the per-rectangle path (off it) — equal the independent flat reader."""

    @pytest.mark.parametrize("pixel", [8.0, 4.0, 2.5, 3.0])
    @pytest.mark.parametrize("path", GDS_FIXTURES, ids=os.path.basename)
    def test_fixture_windows_are_the_flatten_windows(self, path, pixel):
        reader = load_layout_file(path, pixel_size_nm=pixel)
        flat = reader.flatten()
        for window in _tiled_windows(reader.shape):
            ours, theirs = reader.read_window(*window), flat.read_window(*window)
            assert ours.dtype == theirs.dtype == np.uint8
            assert ours.tobytes() == theirs.tobytes(), window
        assert reader.digest() == flat.digest()

    def test_fixtures_sit_on_both_sides_of_the_choice(self):
        """aref_grid at 8 nm reuses one CHECKER raster; the 0.1 nm database
        unit, the 1.1x placement and a 2.5 nm pixel each rule reuse out."""
        on = load_layout_file(AREF_GRID, pixel_size_nm=8.0)
        on.read_window(0, 0, *on.shape)
        assert len(on._rasters) == 1
        for path, pixel in ((AREF_GRID, 2.5),
                            (os.path.join(DATA_DIR, "units_offgrid.gds"), 8.0)):
            off = load_layout_file(path, pixel_size_nm=pixel)
            off.read_window(0, 0, *off.shape)
            assert not off._rasters

    def test_offgrid_fixture_is_a_real_hierarchy(self):
        reader = load_layout_file(os.path.join(DATA_DIR, "units_offgrid.gds"),
                                  pixel_size_nm=2.5)
        assert reader.library.unit_nm == 0.1
        top, = reader.library.top_cells
        assert (_depth(reader.library, top),
                _placements(reader.library, top)) == (3, 37)
        assert reader.read_window(0, 0, *reader.shape).any()


def _array_of(cell_boundaries, columns, rows, pitch):
    """A ``columns x rows`` AREF of one cell as a parsed library."""
    cells = {
        "CELL": GDSCell("CELL", cell_boundaries, []),
        "TOP": GDSCell("TOP", [], [GDSReference(
            "CELL", (0, 0), columns=columns, rows=rows,
            column_vector=(pitch[0], 0), row_vector=(0, pitch[1]))]),
    }
    return parse_gds(write_gds(cells), name="array")


class TestRasterMemoBounds:
    """The memo is bounded by two module constants, so RAM stays O(window)."""

    def test_oversized_cell_is_walked_not_rasterised(self):
        """A cell whose pixel hull exceeds MAX_CELL_RASTER_PX is pruned and
        painted rectangle by rectangle; the small cell inside it is reused."""
        side = 4 * (int(hierarchy_module.MAX_CELL_RASTER_PX ** 0.5) + 8)
        cells = {
            "VIA": GDSCell("VIA", [_rect(1, 0, 0, 40, 24)], []),
            "BIG": GDSCell("BIG", [_rect(1, 0, 0, 64, 64),
                                   _rect(1, side - 64, side - 64, 64, 64)],
                           [GDSReference("VIA", (128, 128), columns=3, rows=2,
                                         column_vector=(96, 0),
                                         row_vector=(0, 64))]),
            "TOP": GDSCell("TOP", [], [
                GDSReference("BIG", (0, 0)),
                GDSReference("BIG", (side + 64, 0))]),
        }
        reader = HierarchicalLayoutReader(
            parse_gds(write_gds(cells), name="big"), pixel_size_nm=4.0)
        flat = reader.flatten()
        for window in ((0, 0, 128, 128), (0, side // 4 + 16, 128, 128),
                       (side // 4 - 64, side // 4 - 64, 128, 128)):
            np.testing.assert_array_equal(reader.read_window(*window),
                                          flat.read_window(*window))
        assert {key[0] for key in reader._rasters} == {"VIA"}

    @pytest.mark.parametrize("budget", [None, 4096])
    def test_memo_stays_within_its_byte_budget(self, monkeypatch, budget):
        """128 x 128 placements at a pitch that walks through every
        sub-pixel phase: the memo holds what fits and the rest takes the
        per-rectangle path — the output never changes."""
        if budget is not None:
            monkeypatch.setattr(hierarchy_module, "MEMO_BUDGET_BYTES", budget)
        library = parse_gds(write_gds({
            "CELL": GDSCell("CELL", [_rect(1, 4, 4, 90, 50),
                                     _rect(1, 100, 60, 30, 120)], []),
            "TOP": GDSCell("TOP", [], [GDSReference(
                "CELL", (0, 0), columns=128, rows=128,
                column_vector=(515, 0), row_vector=(0, 771))]),
        }, unit_nm=0.5), name="phases")
        reader = HierarchicalLayoutReader(library, pixel_size_nm=8.0)
        flat = reader.flatten()
        for window in _tiled_windows((320, 320), margin=0):
            np.testing.assert_array_equal(reader.read_window(*window),
                                          flat.read_window(*window))
        assert len(reader._rasters) > 1
        assert 0 < reader._raster_bytes <= hierarchy_module.MEMO_BUDGET_BYTES
        assert reader._raster_bytes >= sum(
            raster.nbytes for raster, _, _ in reader._rasters.values())

    def test_million_instance_array_window_allocates_o_window(self):
        library = _array_of([_rect(1, 32, 32, 96, 96),
                             _rect(1, 144, 144, 112, 112)], 1000, 1000,
                            (256, 256))
        reader = HierarchicalLayoutReader(library, pixel_size_nm=8.0)
        assert _placements(library, "TOP") == 1_000_001
        tracemalloc.start()
        try:
            for origin in ((0, 0), (15_984, 15_984), (31_968, 31_968)):
                window = reader.read_window(*origin, 64, 64)
                assert window.any()
                assert 0 < reader.last_candidates <= 16
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024       # a 64 px window is 4 KiB


class TestSharedReaderThreads:
    def test_two_threads_read_the_serial_bytes(self):
        """A sweep shares one reader across foci and the service runs two
        queue threads: concurrent ``read_window`` calls — racing to build
        the same memo entries — return the bytes a lone caller gets."""
        windows = _tiled_windows((256, 256), tile=48, margin=16)
        serial = [load_layout_file(HIER4, pixel_size_nm=4.0).read_window(*w)
                  for w in windows]
        reader = load_layout_file(HIER4, pixel_size_nm=4.0)
        results = {}

        def worker(name, order):
            results[name] = {w: reader.read_window(*w) for w in order}

        threads = [threading.Thread(target=worker, args=("up", windows)),
                   threading.Thread(target=worker,
                                    args=("down", windows[::-1]))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for name in ("up", "down"):
            for window, expected in zip(windows, serial):
                np.testing.assert_array_equal(results[name][window], expected)
        assert reader._rasters


class TestEngineWiring:
    """Imaging the hierarchy == imaging its dense flatten, bit for bit."""

    @pytest.mark.parametrize("workers,precision", [
        (1, "float64"), (1, "float32"), (2, "float64"), (2, "float32"),
    ])
    def test_engine_image_layout_bitwise(self, hier_reader, hier_dense,
                                         workers, precision):
        """On one share, and on a budget of two spent on shares."""
        engine = ExecutionEngine.for_optics(CONFIG, compute=ComputeConfig(
            fft_workers=workers, precision=precision))
        ref = reference_image_layout(engine, hier_dense, tile_px=32,
                                     guard_px=8)
        for batch_tiles in (None, 1, 2):
            with stream_batches(engine, batch_tiles), \
                    threads_seen() as seen:
                imaged = engine.image_layout(hier_reader, tile_px=32,
                                             guard_px=8)
            if workers > 1 and batch_tiles != 1:
                assert_ran_on_shares(seen)
            assert imaged.num_tiles == ref.num_tiles
            np.testing.assert_array_equal(np.asarray(imaged.aerial),
                                          ref.aerial)
            np.testing.assert_array_equal(np.asarray(imaged.resist),
                                          ref.resist)

    def test_sharded_image_layout_bitwise(self, hier_reader, hier_dense):
        engine = ExecutionEngine.for_optics(CONFIG)
        ref = reference_image_layout(engine, hier_dense, tile_px=32,
                                     guard_px=8)
        with ShardedExecutor() as executor:
            imaged = executor.image_layout(EngineSpec(config=CONFIG),
                                           hier_reader, tile_px=32,
                                           guard_px=8)
        np.testing.assert_array_equal(np.asarray(imaged.aerial), ref.aerial)
        np.testing.assert_array_equal(np.asarray(imaged.resist), ref.resist)


class TestTileCacheSynergy:
    """An N x M AREF of one cell images exactly one unique tile."""

    def test_serial_array_images_one_unique_tile(self):
        reader = load_layout_file(AREF_GRID, pixel_size_nm=8.0)
        assert reader.shape == (256, 256)  # 8 x 8 tiles of 32 px
        cache = TileResultCache()
        cached_engine = ExecutionEngine.for_optics(CONFIG, tile_cache=cache)
        result = cached_engine.image_layout(reader, tile_px=32, guard_px=0)
        reference = reference_image_layout(
            cached_engine, reader.read_window(0, 0, 256, 256), tile_px=32,
            guard_px=0)
        np.testing.assert_array_equal(result.aerial, reference.aerial)
        np.testing.assert_array_equal(result.resist, reference.resist)
        assert cache.stats.tiles == 64
        assert cache.stats.misses == 1        # == unique cells in the array

    def test_sharded_array_images_one_unique_tile(self, monkeypatch):
        reader = load_layout_file(AREF_GRID, pixel_size_nm=8.0)
        cache = TileResultCache()
        monkeypatch.setattr(tile_cache_module, "_default_cache", cache)
        spec = EngineSpec(config=CONFIG,
                          compute=ComputeConfig(tile_cache=True))
        with ShardedExecutor() as executor:
            result = executor.image_layout(spec, reader, tile_px=32,
                                           guard_px=0)
        reference = reference_image_layout(
            ExecutionEngine.for_optics(CONFIG),
            reader.read_window(0, 0, 256, 256), tile_px=32, guard_px=0)
        np.testing.assert_array_equal(np.asarray(result.aerial),
                                      reference.aerial)
        assert cache.stats.tiles == 64
        assert cache.stats.misses == 1

    def test_one_hierarchy_walk_per_tile(self):
        """Tile-cached imaging reads each placement's window exactly once —
        empty or not — and never asks the reader a second question about
        the same window."""
        reader = load_layout_file(HIER4, pixel_size_nm=8.0)
        windows = []
        read_window = reader.read_window

        def counted(row, col, height, width):
            windows.append((row, col, height, width))
            return read_window(row, col, height, width)

        reader.read_window = counted
        cache = TileResultCache()
        engine = ExecutionEngine.for_optics(CONFIG, tile_cache=cache)
        result = engine.image_layout(reader, tile_px=32, guard_px=8)
        assert len(windows) == result.num_tiles == cache.stats.tiles
        assert len(set(windows)) == len(windows)
        assert 0 < cache.stats.zero_hits < cache.stats.tiles

    @pytest.mark.parametrize("worker_args", [
        ["--fft-workers", "1"],     # one thread
        ["--fft-workers", "2"],     # the core's shares on two threads
    ], ids=["serial", "sharded"])
    def test_cli_image_layout_reports_array_reuse(self, tmp_path,
                                                  monkeypatch, capsys,
                                                  worker_args):
        from repro.cli import main

        monkeypatch.setattr(tile_cache_module, "_default_cache", None)
        output = str(tmp_path / "aerial.npz")
        assert main(["image-layout", "--input", AREF_GRID,
                     "--tile-size", "32", "--guard", "0",
                     "--pixel-size-nm", "8", "--tile-cache",
                     "--output", output] + worker_args) == 0
        out = capsys.readouterr().out
        match = re.search(r"tile cache: (\d+)/(\d+) tiles served from cache "
                          r"\(([\d.]+)% hit rate, (\d+) imaged\)", out)
        assert match, out
        served, tiles, rate, imaged = match.groups()
        assert int(imaged) == 1               # == unique cells
        assert int(tiles) == 64
        assert float(rate) >= 90.0
        assert os.path.exists(output)


class TestCLIEndToEnd:
    def test_binary_gds_loads_from_cli(self, hier_dense, tmp_path, capsys):
        """`image-layout --input chip.gds` works end to end."""
        from repro.cli import main

        output = str(tmp_path / "chip.npz")
        assert main(["image-layout", "--input", HIER4, "--tile-size", "32",
                     "--pixel-size-nm", "8", "--guard", "8",
                     "--output", output]) == 0
        assert "streamed" in capsys.readouterr().out
        with np.load(output) as archive:
            np.testing.assert_array_equal(archive["mask"], hier_dense)
            assert archive["aerial"].shape == hier_dense.shape
            assert archive["resist"].shape == hier_dense.shape
