"""Hierarchical GDSII reader (repro.layout.hierarchy): conformance suite.

The headline invariant: a :class:`HierarchicalLayoutReader` over a cell
graph is **bit-for-bit** equal to the dense flatten of that graph — every
window, every backend (numpy / scipy), every precision (float64 / float32),
serial and sharded, in-memory and streaming — and shares the flat reader's
canonical digest (campaign identity), while never materialising the flat
raster or expanding instance arrays eagerly.  Plus the PR's synergy
payoff: an AREF array of one cell images exactly one unique tile through
the tile-result cache.
"""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_image_layout
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
    read_layout_shapes,
    shapes_extent_nm,
    write_gds,
)
from repro.layout.gdsii import GDSBoundary, GDSCell, GDSReference, parse_gds
from repro.layout.hierarchy import Transform
from repro.optics.simulator import OpticsConfig

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
HIER4 = os.path.join(DATA_DIR, "hier4.gds")
AREF_GRID = os.path.join(DATA_DIR, "aref_grid.gds")

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)


@pytest.fixture(scope="module")
def hier_reader() -> HierarchicalLayoutReader:
    return load_layout_file(HIER4, pixel_size_nm=8.0)


@pytest.fixture(scope="module")
def hier_flat(hier_reader) -> GeometryLayoutReader:
    return hier_reader.flatten()


@pytest.fixture(scope="module")
def hier_dense(hier_flat) -> np.ndarray:
    return hier_flat.materialise()


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

    def test_compose_is_function_composition(self):
        outer = Transform.place(10.0, 4.0, quarter_turns=1)
        inner = Transform.place(-2.0, 6.0, mag=2.0, reflect=True)
        composed = outer.compose(inner)
        for point in ((0.0, 0.0), (3.0, 5.0), (-1.0, 2.0)):
            assert composed.apply(*point) == outer.apply(*inner.apply(*point))

    def test_box_maps_are_consistent(self):
        transform = Transform.place(7.0, -2.0, mag=3.0, quarter_turns=3,
                                    reflect=True)
        box = (1.0, 2.0, 4.0, 8.0)
        forward = transform.apply_box(*box)
        np.testing.assert_allclose(transform.invert_box(*forward), box,
                                   atol=1e-9)


class TestHierarchyResolution:
    def test_loads_as_reader(self, hier_reader):
        assert isinstance(hier_reader, HierarchicalLayoutReader)
        assert is_layout_reader(hier_reader)
        assert hier_reader.depth >= 4          # the >= 4-level fixture
        assert hier_reader.cell_count == 5
        assert hier_reader.top_cell == "CHIP"
        # 4 BLOCKs x (2 ROWs x (3 PAIRs x 2 UNITs + 3 PAIRs) + 2 UNITs
        # + 2 ROWs + 1 BLOCK) + ... : arrays counted arithmetically
        assert hier_reader.instance_count == 93

    @given(row=st.integers(-8, 72), col=st.integers(-8, 72),
           height=st.integers(1, 48), width=st.integers(1, 48))
    @settings(max_examples=30, deadline=None)
    def test_any_window_equals_flatten_window(self, hier_reader, hier_flat,
                                              row, col, height, width):
        np.testing.assert_array_equal(
            hier_reader.read_window(row, col, height, width),
            hier_flat.read_window(row, col, height, width))

    def test_materialise_equals_flatten(self, hier_reader, hier_dense):
        np.testing.assert_array_equal(hier_reader.materialise(), hier_dense)
        assert hier_dense.any()

    def test_digest_parity_with_flatten(self, hier_reader, hier_flat):
        """Hierarchical and flat spellings share one campaign identity."""
        assert hier_reader.digest() == hier_flat.digest()
        finer = load_layout_file(HIER4, pixel_size_nm=4.0)
        assert finer.digest() != hier_reader.digest()

    def test_window_cost_is_flat_in_instance_count(self):
        """One tile of a 64-instance array touches ~one instance's worth of
        rectangles, not the whole array (the laziness observable)."""
        reader = load_layout_file(AREF_GRID, pixel_size_nm=8.0)
        assert reader.instance_count == 65  # GRID + 8x8 CHECKERs
        total_rects = 8 * 8 * 3
        reader.read_window(32, 32, 32, 32)
        assert 0 < reader.last_candidates <= 12 < total_rects

    def test_explicit_top_cell(self):
        library = parse_gds(HIER4)
        row_only = HierarchicalLayoutReader(library, pixel_size_nm=8.0,
                                            top="ROW")
        assert row_only.top_cell == "ROW"
        assert row_only.depth == 3
        with pytest.raises(LayoutFormatError, match="not defined"):
            HierarchicalLayoutReader(library, pixel_size_nm=8.0, top="NOPE")

    def test_ambiguous_top_cell_requires_choice(self):
        cells = {
            "A": GDSCell("A", [_rect(1, 0, 0, 8, 8)], []),
            "B": GDSCell("B", [_rect(1, 0, 0, 16, 16)], []),
        }
        library = parse_gds(write_gds(cells), name="two_tops")
        with pytest.raises(LayoutFormatError, match="ambiguous top cell"):
            HierarchicalLayoutReader(library, pixel_size_nm=8.0)
        picked = HierarchicalLayoutReader(library, pixel_size_nm=8.0,
                                          top="B")
        assert picked.shape == (2, 2)

    def test_cycle_detection(self):
        cells = {
            "T": GDSCell("T", [], [GDSReference("A", (0, 0))]),
            "A": GDSCell("A", [_rect(1, 0, 0, 8, 8)],
                         [GDSReference("B", (16, 0))]),
            "B": GDSCell("B", [], [GDSReference("A", (16, 0))]),
        }
        library = parse_gds(write_gds(cells), name="cyclic")
        with pytest.raises(LayoutFormatError, match="cycle"):
            HierarchicalLayoutReader(library, pixel_size_nm=8.0, top="T")

    def test_fine_database_unit_is_transparent(self):
        """0.5 nm database units: same nm geometry, same raster, same
        identity as the 1 nm spelling."""
        coarse = load_layout_file(os.path.join(DATA_DIR,
                                               "flat_boundaries.gds"),
                                  pixel_size_nm=4.0)
        fine = load_layout_file(os.path.join(DATA_DIR, "units_fine.gds"),
                                pixel_size_nm=4.0)
        np.testing.assert_array_equal(coarse.materialise(),
                                      fine.materialise())
        assert coarse.digest() == fine.digest()

    def test_read_layout_shapes_flattens_binary_gds(self):
        shapes, extent = read_layout_shapes(HIER4)
        assert extent is None
        assert shapes and all(layer.isdigit() for layer in shapes)
        assert shapes_extent_nm(shapes) == 568.0


@st.composite
def cell_hierarchies(draw):
    """Random Manhattan cell graphs: a leaf of rectangles under 1-3 levels
    of SREF / AREF placements with rotation, reflection and magnification.
    Chained so exactly one top cell exists."""
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
                mag=draw(st.sampled_from([1.0, 2.0])),
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
    unit_nm = draw(st.sampled_from([1.0, 0.5]))
    pixel = draw(st.sampled_from([4.0, 8.0]))
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
        reader = load_layout_file(path, pixel_size_nm=pixel,
                                  shape=(48, 48))
        assert isinstance(reader, HierarchicalLayoutReader)
        flat = reader.flatten()
        np.testing.assert_array_equal(reader.materialise(),
                                      flat.materialise())
        assert reader.digest() == flat.digest()
        for row, col, height, width in ((0, 0, 17, 23), (-4, 9, 21, 13),
                                        (30, 30, 30, 30)):
            np.testing.assert_array_equal(
                reader.read_window(row, col, height, width),
                flat.read_window(row, col, height, width))


class TestEngineWiring:
    """Imaging the hierarchy == imaging its dense flatten, bit for bit."""

    @pytest.mark.parametrize("backend_name,precision", [
        ("numpy", "float64"), ("numpy", "float32"),
        ("scipy", "float64"), ("scipy", "float32"),
    ])
    def test_engine_image_layout_bitwise(self, hier_reader, hier_dense,
                                         backend_name, precision):
        if backend_name == "scipy":
            pytest.importorskip("scipy.fft")
        engine = ExecutionEngine.for_optics(CONFIG, compute=ComputeConfig(
            fft_backend=backend_name, precision=precision))
        ref = reference_image_layout(engine, hier_dense, tile_px=32,
                                     guard_px=8)
        for kwargs in ({}, {"batch_tiles": 1}, {"batch_tiles": 2}):
            imaged = engine.image_layout(hier_reader, tile_px=32,
                                         guard_px=8, **kwargs)
            assert imaged.num_tiles == ref.num_tiles
            np.testing.assert_array_equal(np.asarray(imaged.aerial),
                                          ref.aerial)
            np.testing.assert_array_equal(np.asarray(imaged.resist),
                                          ref.resist)

    def test_sharded_image_layout_bitwise(self, hier_reader, hier_dense):
        engine = ExecutionEngine.for_optics(CONFIG)
        ref = reference_image_layout(engine, hier_dense, tile_px=32,
                                     guard_px=8)
        with ShardedExecutor(num_workers=1) as executor:
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
        assert cache.stats.hit_rate >= 0.9

    def test_sharded_array_images_one_unique_tile(self):
        reader = load_layout_file(AREF_GRID, pixel_size_nm=8.0)
        cache = TileResultCache()
        spec = EngineSpec(config=CONFIG)
        with ShardedExecutor(num_workers=2, tile_cache=cache) as executor:
            result = executor.image_layout(spec, reader, tile_px=32,
                                           guard_px=0)
        reference = reference_image_layout(
            ExecutionEngine.for_optics(CONFIG),
            reader.read_window(0, 0, 256, 256), tile_px=32, guard_px=0)
        np.testing.assert_array_equal(np.asarray(result.aerial),
                                      reference.aerial)
        assert cache.stats.tiles == 64
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate >= 0.9

    def test_one_hierarchy_walk_per_tile(self):
        """Tile-cached imaging walks the cell graph from the root exactly
        once per placement — empty or not — and never asks the reader a
        second question about the same window."""
        reader = load_layout_file(HIER4, pixel_size_nm=8.0)
        walks = []
        real_walk = reader._iter_cell

        def counted(name, transform, window):
            if name == reader.top_cell:
                walks.append(window)
            return real_walk(name, transform, window)

        reader._iter_cell = counted
        cache = TileResultCache()
        engine = ExecutionEngine.for_optics(CONFIG, tile_cache=cache)
        result = engine.image_layout(reader, tile_px=32, guard_px=8)
        assert len(walks) == result.num_tiles == cache.stats.tiles
        assert 0 < cache.stats.zero_hits < cache.stats.tiles

    @pytest.mark.parametrize("worker_args", [
        [],                     # one inline shard
        ["--workers", "2"],     # two shards on worker threads
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
