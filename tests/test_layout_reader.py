"""Windowed layout readers (repro.layout): protocol, index, files, wiring.

The headline invariant of the subsystem is pinned here: reader-fed imaging
is **bit-for-bit identical** to the plain dense-array reference
(``tests/reference.py``), across guard bands, backends, precisions, batch
sizes and the sharded executor — and campaign identity
comes from the reader's canonical shape digest without the dense raster ever
existing.
"""

import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    RecordingTileCache,
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
    TilingSpec,
    extract_tiles,
)
from repro.engine import tile_cache as tile_cache_module
from repro.layout import (
    ArrayLayoutReader,
    GeometryLayoutReader,
    array_digest,
    as_layout_reader,
    is_layout_file,
    is_layout_reader,
    load_layout_file,
    load_layout_mask,
    source_digest,
)
from repro.layout.files import layout_reader_from_bytes, read_layout_bytes
from repro.layout.geometry import Polygon, Rect
from repro.layout.indexed import layout_digest
from repro.masks.io import save_layout
from repro.masks.layout import Layout
from repro.optics.simulator import OpticsConfig
from repro.sweep import CampaignStore, FocusExposureGrid, ProcessWindowSweep


def random_layout(seed: int = 0, extent_nm: float = 768.0,
                  shapes: int = 120) -> Layout:
    rng = np.random.default_rng(seed)
    layout = Layout(extent_nm=extent_nm)
    for _ in range(shapes):
        x, y = rng.uniform(0, extent_nm - 64, 2)
        w, h = rng.uniform(16, 90, 2)
        layout.add("m1", Rect(float(x), float(y), float(w), float(h)))
    return layout


def indexed(layout: Layout, side: int) -> GeometryLayoutReader:
    """``layout`` indexed onto a ``side`` x ``side`` raster — the pitch of
    ``Layout.rasterize(layer, side)``."""
    return GeometryLayoutReader(layout.layers, layout.extent_nm / side,
                                shape=(side, side))


@pytest.fixture(scope="module")
def geometry_reader() -> GeometryLayoutReader:
    return indexed(random_layout(), 96)


@pytest.fixture(scope="module")
def dense(geometry_reader) -> np.ndarray:
    return geometry_reader.read_window(0, 0, *geometry_reader.shape)


class TestArrayLayoutReader:
    def test_windows_equal_dense_slices(self):
        rng = np.random.default_rng(3)
        dense = rng.random((40, 56))
        reader = ArrayLayoutReader(dense)
        assert reader.shape == (40, 56)
        assert is_layout_reader(reader)
        np.testing.assert_array_equal(reader.read_window(4, 8, 10, 12),
                                      dense[4:14, 8:20])

    def test_out_of_bounds_is_zero_padded(self):
        dense = np.ones((8, 8))
        reader = ArrayLayoutReader(dense)
        window = reader.read_window(-2, 6, 4, 4)
        assert window.shape == (4, 4)
        assert window[:2].sum() == 0          # above the layout
        assert window[2:, 2:].sum() == 0      # right of the layout
        np.testing.assert_array_equal(window[2:, :2], 1.0)
        assert reader.read_window(100, 100, 4, 4).sum() == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ArrayLayoutReader(np.zeros(5))
        with pytest.raises(ValueError):
            ArrayLayoutReader(np.zeros((4, 4))).read_window(0, 0, 0, 4)

    def test_digest_matches_store_layout_digest(self):
        """Dense campaign identity is unchanged: same hash either spelling."""
        dense = np.arange(12.0).reshape(3, 4)
        assert ArrayLayoutReader(dense).digest() == array_digest(dense)
        assert source_digest(dense) == array_digest(dense)

    def test_as_layout_reader_passthrough(self, geometry_reader):
        assert as_layout_reader(geometry_reader) is geometry_reader
        coerced = as_layout_reader(np.zeros((4, 4)))
        assert isinstance(coerced, ArrayLayoutReader)


class TestGeometryLayoutReader:
    def test_full_window_equals_dense_rasterize(self):
        layout = random_layout(seed=7)
        reader = indexed(layout, 128)
        np.testing.assert_array_equal(reader.read_window(0, 0, 128, 128),
                                      layout.rasterize("m1", 128))

    @given(row=st.integers(-16, 120), col=st.integers(-16, 120),
           height=st.integers(1, 64), width=st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_any_window_equals_dense_window(self, geometry_reader, dense,
                                            row, col, height, width):
        np.testing.assert_array_equal(
            geometry_reader.read_window(row, col, height, width),
            ArrayLayoutReader(dense).read_window(row, col, height, width))

    def test_window_queries_touch_o_window_shapes(self, geometry_reader):
        """A tile-sized window touches a small fraction of the index."""
        geometry_reader.read_window(32, 32, 24, 24)
        shapes = len(random_layout().shapes("m1"))
        assert 0 < geometry_reader.last_candidates < shapes / 2

    def test_window_candidates_stay_flat_as_the_layout_grows(self):
        """One 20 px square per 32 px cell, so the shape count grows with
        the area: at 16x the area, a 128 px window still touches at most
        the 3 x 3 buckets of 64 px it overlaps, 4 shapes each."""
        counts = {}
        for side in (256, 1024):
            cells = side // 32
            reader = GeometryLayoutReader(
                {"m1": [Rect(32.0 * col + 4, 32.0 * row + 4, 20.0, 20.0)
                        for row in range(cells) for col in range(cells)]},
                pixel_size_nm=1.0, shape=(side, side))
            origins = np.random.default_rng(1).integers(0, side - 128,
                                                        size=(32, 2))
            counts[side] = []
            for row, col in origins:
                reader.read_window(int(row), int(col), 128, 128)
                counts[side].append(reader.last_candidates)
        assert max(counts[256]) == max(counts[1024]) == 36

    def test_polygons_decompose_and_rasterise(self):
        poly = Polygon(((0, 0), (40, 0), (40, 16), (16, 16), (16, 40),
                        (0, 40)))
        reader = GeometryLayoutReader({"m": [poly]}, pixel_size_nm=4.0,
                                      extent_nm=64.0)
        from repro.layout.geometry import rasterize

        np.testing.assert_array_equal(reader.read_window(0, 0, 16, 16),
                                      rasterize(poly.to_rects(), 16, 4.0))

    def test_every_layer_is_unioned(self):
        shapes = {"a": [Rect(0, 0, 32, 32)], "b": [Rect(32, 32, 32, 32)]}
        both = GeometryLayoutReader(shapes, pixel_size_nm=8.0, extent_nm=64.0)
        assert both.layers == ("a", "b")
        assert both.read_window(0, 0, *both.shape).sum() == 32

    def test_digest_is_canonical(self):
        layout = random_layout(seed=11, shapes=40)
        reversed_layout = Layout(extent_nm=layout.extent_nm)
        for shape in reversed(layout.shapes("m1")):
            reversed_layout.add("m1", shape)
        make = lambda lay: indexed(lay, 64)
        assert make(layout).digest() == make(reversed_layout).digest()
        # shapes that rasterise outside the raster do not perturb identity
        outside = Layout(extent_nm=layout.extent_nm)
        for shape in layout.shapes("m1"):
            outside.add("m1", shape)
        outside.add("m1", Rect(10_000.0, 10_000.0, 5.0, 5.0))
        assert make(outside).digest() == make(layout).digest()
        # but real content changes do
        changed = Layout(extent_nm=layout.extent_nm)
        for shape in layout.shapes("m1"):
            changed.add("m1", shape)
        changed.add("m1", Rect(8.0, 8.0, 64.0, 64.0))
        assert make(changed).digest() != make(layout).digest()

    def test_digest_is_the_pinned_identity_format(self):
        """Stored campaigns were written under this identity: the raster
        geometry, then each layer's sorted, de-duplicated pixel intervals
        ``(row0, row1, col0, col1)`` — spelled out here by hand."""
        shapes = {"m1": [Rect(0, 0, 32, 32), Rect(0, 0, 32, 32),
                         Rect(40, 8, 16, 24)],
                  "v1": [Rect(16, 16, 8, 8)]}
        reader = GeometryLayoutReader(shapes, pixel_size_nm=8.0,
                                      extent_nm=64.0)
        expected = hashlib.sha256(
            b"repro-layout-reader|shape=(8, 8)|pixel=8.0"
            b"|layer=m1:(0, 4, 0, 4)(1, 4, 5, 7)"
            b"|layer=v1:(2, 3, 2, 3)").hexdigest()
        assert reader.digest() == expected == (
            "431f5274048ffd8651e2321df7ca0edace11a6f2af12744382dcb5ca035af300")

    def test_layout_digest_hashes_each_layers_interval_set(self):
        """Interval order and repeats within a layer do not move the
        identity; the layer an interval sits on, and the raster geometry,
        do."""
        a, b = (0, 4, 0, 4), (1, 4, 5, 7)
        digest = layout_digest((8, 8), 8.0, [("m1", [a, b]), ("v1", [])])
        assert layout_digest((8, 8), 8.0, [("m1", iter([b, a, b])),
                                           ("v1", [])]) == digest
        assert layout_digest((8, 8), 8.0, [("m1", [a]),
                                           ("v1", [b])]) != digest
        assert layout_digest((8, 9), 8.0, [("m1", [a, b]),
                                           ("v1", [])]) != digest
        assert layout_digest((8, 8), 4.0, [("m1", [a, b]),
                                           ("v1", [])]) != digest

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            GeometryLayoutReader({}, pixel_size_nm=4.0)  # no shape/extent
        with pytest.raises(ValueError):
            GeometryLayoutReader({}, pixel_size_nm=0.0, extent_nm=64.0)


HIER4 = os.path.join(os.path.dirname(__file__), "data", "hier4.gds")


class TestConcurrentReads:
    """The uncached imaging loop reads windows from every thread share at
    once: a reader shared by four threads returns exactly the windows one
    thread reads, the hierarchical reader's placed-cell memo included."""

    @staticmethod
    def windows(shape, size=32, step=16):
        return [(row, col, size, size)
                for row in range(-8, shape[0], step)
                for col in range(-8, shape[1], step)]

    @pytest.mark.parametrize("make", [
        lambda: load_layout_file(HIER4, pixel_size_nm=8.0),
        lambda: indexed(random_layout(seed=5), 96),
    ], ids=["hier4.gds", "geometry"])
    def test_four_threads_read_the_serial_windows(self, make):
        serial = make()
        windows = self.windows(serial.shape)
        expected, counts = [], set()
        for window in windows:
            expected.append(serial.read_window(*window).tobytes())
            counts.add(serial.last_candidates)
        shared = make()  # fresh: its memo is built under contention

        def read(window):
            return shared.read_window(*window).tobytes(), \
                shared.last_candidates

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(read, windows * 3))
        finally:
            sys.setswitchinterval(interval)
        assert [window for window, _ in got] == expected * 3
        # The counter is published whole: some window's count, never a
        # count another thread reset halfway.
        assert {count for _, count in got} <= counts


class TestLayoutFiles:
    def test_a_layer_of_degenerate_polygons_is_no_identity(self, tmp_path):
        layout = Layout(extent_nm=256.0)
        layout.add("m1", Rect(16, 16, 64, 32))
        path = save_layout(layout, str(tmp_path / "chip.json"))
        plain = load_layout_file(path, pixel_size_nm=8.0).digest()
        document = json.loads(open(path).read())
        document["polygons"] = {"m2": [[[0, 200], [48, 200], [96, 200]],
                                       [[8, 8], [8, 8], [8, 8]]]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        reader = load_layout_file(path, pixel_size_nm=8.0)
        assert reader.layers == ("m1", "m2")
        assert reader.digest() == plain

    def test_json_roundtrip_with_polygons(self, tmp_path):
        layout = Layout(extent_nm=256.0)
        layout.add("m1", Rect(16, 16, 64, 32))
        path = save_layout(layout, str(tmp_path / "chip.json"))
        document = json.loads(open(path).read())
        document["polygons"] = {"m1": [[[0, 200], [48, 200], [48, 224],
                                        [24, 224], [24, 240], [0, 240]]]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        reader = load_layout_file(path, pixel_size_nm=8.0)
        assert reader.shape == (32, 32)
        # the rect occupies 8x4 px starting at (2, 2)
        np.testing.assert_array_equal(
            reader.read_window(2, 2, 4, 8), 1.0)
        # and the polygon decomposes into rectangles of its own
        from repro.layout.geometry import rasterize

        poly = Polygon(((0, 200), (48, 200), (48, 224), (24, 224),
                        (24, 240), (0, 240)))
        np.testing.assert_array_equal(
            reader.read_window(0, 0, 32, 32),
            rasterize([Rect(16, 16, 64, 32)] + poly.to_rects(), 32, 8.0))

    def test_gds_text_loader(self, tmp_path):
        """GDSII text is no longer read: the file is refused with an error
        that names it and says what to export instead — through the loader
        and through the CLI's ``--input`` alike."""
        from repro.cli import main
        from repro.layout import LayoutFormatError

        path = tmp_path / "chip.gdstxt"
        path.write_text("\n".join([
            "HEADER 600", "BGNLIB", "UNITS 0.001 1e-9", "BGNSTR",
            "STRNAME TOP",
            "BOUNDARY", "LAYER 1",
            "XY 0 0 128 0 128 64 0 64 0 0", "ENDEL",
            "ENDSTR", "ENDLIB"]))
        with pytest.raises(LayoutFormatError) as excinfo:
            load_layout_file(str(path), pixel_size_nm=8.0)
        message = str(excinfo.value)
        assert str(path) in message
        assert "GDSII text is no longer read" in message
        assert "binary .gds" in message
        assert is_layout_file(str(path))  # refused, not handed to np.load
        assert main(["image-layout", "--input", str(path), "--tile-size",
                     "32", "--pixel-size-nm", "8",
                     "--output", str(tmp_path / "x.npz")]) == 2
        assert not os.path.exists(tmp_path / "x.npz")

    def test_truncated_binary_gds_fails_loudly(self, tmp_path):
        """Binary GDSII now *loads* (see test_layout_hierarchy.py); a
        truncated stream must still fail with a clear, offset-bearing
        error — not a decode traceback or zero shapes."""
        from repro.layout import LayoutFormatError

        path = tmp_path / "chip.gds"
        # a real binary GDSII header, cut off mid-BGNLIB record
        path.write_bytes(bytes([0, 6, 0, 2, 2, 0x58]) + b"\x00\x1c\x01\x02")
        with pytest.raises(LayoutFormatError, match="offset"):
            load_layout_file(str(path), pixel_size_nm=8.0)

    def test_non_gds_binary_rejected_with_clear_error(self, tmp_path):
        """NUL-ridden files without a GDSII HEADER stay a loud error."""
        from repro.layout import LayoutFormatError

        path = tmp_path / "blob.gds"
        path.write_bytes(b"\x89PNG\x00\x00\x00\x0d" * 8)
        with pytest.raises(LayoutFormatError,
                           match="no binary GDSII HEADER record"):
            load_layout_file(str(path), pixel_size_nm=8.0)

    def test_reader_from_bytes_needs_only_the_bytes(self, tmp_path):
        """The bytes read once are the whole input: the file may be gone."""
        layout = Layout(extent_nm=256.0)
        layout.add("m1", Rect(16, 16, 64, 32))
        path = save_layout(layout, str(tmp_path / "chip.json"))
        expected = load_layout_file(path, pixel_size_nm=8.0).read_window(
            0, 0, 32, 32)
        data = read_layout_bytes(path)
        os.remove(path)
        reader = layout_reader_from_bytes(path, data, pixel_size_nm=8.0)
        np.testing.assert_array_equal(reader.read_window(0, 0, 32, 32),
                                      expected)

    def test_read_layout_bytes_names_a_missing_file(self, tmp_path):
        missing = str(tmp_path / "gone.gds")
        with pytest.raises(FileNotFoundError, match="gone.gds"):
            read_layout_bytes(missing)

    def test_dense_mask_files(self, tmp_path):
        """``.npz`` reads key ``mask`` before any other; a raster must be 2-D."""
        mask = (np.arange(12.0).reshape(3, 4) > 5).astype(np.uint8)
        np.savez(tmp_path / "m.npz", aaa=np.zeros((2, 2)), mask=mask)
        loaded = load_layout_mask(str(tmp_path / "m.npz"))
        assert loaded.dtype == float
        np.testing.assert_array_equal(loaded, mask)
        np.save(tmp_path / "cube.npy", np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="must be 2-D"):
            load_layout_mask(str(tmp_path / "cube.npy"))

    def test_suffix_dispatch_and_errors(self, tmp_path):
        assert is_layout_file("chip.json")
        assert is_layout_file("chip.gdstxt")
        assert not is_layout_file("chip.npz")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_layout_file(str(bad), pixel_size_nm=8.0)
        empty = tmp_path / "empty.gdstxt"
        empty.write_text("HEADER 600\n")
        with pytest.raises(ValueError):
            load_layout_file(str(empty), pixel_size_nm=8.0)
        with pytest.raises(FileNotFoundError):
            load_layout_file(str(tmp_path / "missing.json"), pixel_size_nm=8.0)


class TestEngineWiring:
    """Reader-fed imaging == dense-array imaging, bit for bit."""

    def test_extract_tiles_reader_equals_dense(self, geometry_reader, dense):
        spec = TilingSpec(tile_px=32, guard_px=8)
        reader_tiles, reader_places = extract_tiles(geometry_reader, spec)
        dense_tiles, dense_places = extract_tiles(dense, spec)
        assert reader_places == dense_places
        np.testing.assert_array_equal(reader_tiles, dense_tiles)

    def test_tile_cache_batches_accept_reader(self, geometry_reader, dense):
        """The rows a geometry reader's stream batches hand the tile cache
        are the dense tiles — on a first call, which reads every window to
        digest it, and on a repeat, which reads them only on access."""
        spec = TilingSpec(tile_px=32, guard_px=8)
        dense_tiles, _ = extract_tiles(dense, spec)
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        cache = RecordingTileCache()
        engine = ExecutionEngine.for_optics(config, tile_cache=cache)
        for _ in range(2):
            with stream_batches(engine, 3):
                engine.image_layout(geometry_reader, tiling=spec)
            np.testing.assert_array_equal(
                np.stack([row for batch in cache.batches for row in batch]),
                dense_tiles)
            del cache.batches[:]

    @pytest.mark.parametrize("workers,precision", [
        (1, "float64"), (1, "float32"), (2, "float64"), (2, "float32"),
    ])
    def test_engine_image_layout_bitwise(self, geometry_reader, dense,
                                         workers, precision):
        """On one share, and on a budget of two spent on shares."""
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        engine = ExecutionEngine.for_optics(config, compute=ComputeConfig(
            fft_workers=workers, precision=precision))
        ref = reference_image_layout(engine, dense, tile_px=32, guard_px=8)
        for batch_tiles in (None, 1, 2):
            with stream_batches(engine, batch_tiles), \
                    threads_seen() as seen:
                imaged = engine.image_layout(geometry_reader, tile_px=32,
                                             guard_px=8)
            if workers > 1 and batch_tiles != 1:
                assert_ran_on_shares(seen)
            assert imaged.num_tiles == ref.num_tiles
            np.testing.assert_array_equal(np.asarray(imaged.aerial),
                                          ref.aerial)
            np.testing.assert_array_equal(np.asarray(imaged.resist),
                                          ref.resist)

    def test_engine_reader_memmap_out_dir(self, geometry_reader, dense,
                                          tmp_path):
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        engine = ExecutionEngine.for_optics(config)
        ref = reference_image_layout(engine, dense, tile_px=32, guard_px=8)
        out = engine.image_layout(geometry_reader, tile_px=32, guard_px=8,
                                  out_dir=str(tmp_path / "stream"))
        np.testing.assert_array_equal(np.asarray(out.aerial), ref.aerial)
        assert os.path.exists(tmp_path / "stream" / "meta.json")

    def test_sharded_image_layout_bitwise(self, geometry_reader, dense):
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        engine = ExecutionEngine.for_optics(config)
        ref = reference_image_layout(engine, dense, tile_px=32, guard_px=8)
        with ShardedExecutor() as executor:
            imaged = executor.image_layout(EngineSpec(config=config),
                                           geometry_reader, tile_px=32,
                                           guard_px=8)
        np.testing.assert_array_equal(np.asarray(imaged.aerial), ref.aerial)


class ThreeMemberReader:
    """A third-party reader: ``shape``, ``read_window``, ``digest`` and
    nothing else (``__slots__``: asking for any other member raises)."""

    __slots__ = ("_raster",)

    def __init__(self, raster):
        self._raster = raster

    @property
    def shape(self):
        return self._raster.shape

    def read_window(self, row, col, height, width):
        out = np.zeros((height, width), dtype=np.int16)
        rows, cols = self._raster.shape
        top, left = max(row, 0), max(col, 0)
        bottom, right = min(row + height, rows), min(col + width, cols)
        if bottom > top and right > left:
            out[top - row:bottom - row, left - col:right - col] = \
                self._raster[top:bottom, left:right]
        return out

    def digest(self):
        return array_digest(self._raster)


class TestThirdPartyReader:
    """The three documented members are the whole seam."""

    @pytest.mark.parametrize("tile_cache,workers", [
        (False, 1), (True, 1), (False, 2), (True, 2),
    ], ids=["uncached", "cached", "uncached-2w", "cached-2w"])
    def test_image_layout_bitwise(self, dense, tile_cache, workers,
                                  monkeypatch):
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        dense = dense.copy()
        dense[:, 40:] = 0  # leave whole tiles empty for the zero fast path
        reader = ThreeMemberReader(dense.astype(np.int16))
        assert [name for name in dir(reader) if not name.startswith("_")] \
            == ["digest", "read_window", "shape"]
        ref = reference_image_layout(ExecutionEngine.for_optics(config),
                                     dense, tile_px=32, guard_px=8)
        cache = TileResultCache() if tile_cache else None
        monkeypatch.setattr(tile_cache_module, "_default_cache", cache)
        spec = EngineSpec(config=config,
                          compute=ComputeConfig(fft_workers=workers,
                                                tile_cache=tile_cache))
        with ShardedExecutor() as executor:
            for batch_tiles in (None, 3):
                with stream_batches(executor.warm(spec), batch_tiles):
                    imaged = executor.image_layout(spec, reader, tile_px=32,
                                                   guard_px=8)
                np.testing.assert_array_equal(np.asarray(imaged.aerial),
                                              ref.aerial)
                np.testing.assert_array_equal(np.asarray(imaged.resist),
                                              ref.resist)
        if cache is not None:
            stats = cache.stats
            assert stats.zero_hits > 0 and stats.misses > 0
            assert stats.tiles == (stats.hits + stats.zero_hits
                                   + stats.disk_loads + stats.misses)


class TestSweepWiring:
    def test_sweep_reader_equals_dense(self, geometry_reader, dense):
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        grid = FocusExposureGrid(focus_values_nm=(-40.0, 0.0, 40.0),
                                 dose_values=(0.95, 1.0, 1.05))
        via_reader = ProcessWindowSweep(config).run(geometry_reader,
                                                    grid=grid, guard_px=8)
        via_dense = ProcessWindowSweep(config).run(dense, grid=grid,
                                                   guard_px=8)
        assert via_reader.window == via_dense.window

    def test_multi_tile_reader_takes_streaming_path(self, geometry_reader,
                                                    monkeypatch):
        """Readers must never materialise the full tile stack in a sweep."""
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        sweep = ProcessWindowSweep(config)
        routed = []
        original = type(sweep.executor).image_layout

        def spy(self, spec, layout, **kwargs):
            routed.append(layout)
            return original(self, spec, layout, **kwargs)

        monkeypatch.setattr(type(sweep.executor), "image_layout", spy)
        grid = FocusExposureGrid(focus_values_nm=(0.0,), dose_values=(1.0,))
        sweep.run(geometry_reader, grid=grid, guard_px=8)
        # The reader itself reaches the pipeline, which rasterises it in
        # bounded batches — not a dense stand-in cut into a full stack.
        assert routed and all(layout is geometry_reader for layout in routed)

    def test_campaign_identity_uses_reader_digest(self, geometry_reader,
                                                  tmp_path):
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        grid = FocusExposureGrid(focus_values_nm=(0.0,), dose_values=(1.0,))
        store = CampaignStore(str(tmp_path / "campaign"))
        ProcessWindowSweep(config).run(geometry_reader, grid=grid, guard_px=8,
                                       store=store)
        manifest = CampaignStore(str(tmp_path / "campaign")).read_manifest()
        assert manifest["campaign"]["layout_sha256"] == \
            geometry_reader.digest()
        assert manifest["campaign"]["layout_shape"] == \
            list(geometry_reader.shape)

    def test_reader_campaign_resumes_without_recompute(self, geometry_reader,
                                                       tmp_path):
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        grid = FocusExposureGrid(focus_values_nm=(-40.0, 0.0),
                                 dose_values=(1.0, 1.05))
        store_dir = str(tmp_path / "campaign")
        first = ProcessWindowSweep(config).run(geometry_reader, grid=grid,
                                               guard_px=8, store=store_dir)
        assert first.computed_conditions == len(grid)
        again = ProcessWindowSweep(config).run(geometry_reader, grid=grid,
                                               guard_px=8, store=store_dir)
        assert again.computed_conditions == 0
        assert again.skipped_conditions == len(grid)
        assert again.window == first.window

    def test_single_tile_reader(self):
        layout = Layout(extent_nm=256.0)
        layout.add("m1", Rect(32, 64, 192, 96))
        reader = indexed(layout, 32)
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        grid = FocusExposureGrid(focus_values_nm=(0.0,), dose_values=(1.0,))
        via_reader = ProcessWindowSweep(config).run(reader, grid=grid)
        via_dense = ProcessWindowSweep(config).run(
            reader.read_window(0, 0, *reader.shape), grid=grid)
        assert via_reader.window == via_dense.window
        assert via_reader.num_tiles == 1
