"""A layout file is parsed once and each window digested once per process.

``repro.layout.load_layout_source`` keeps the readers it builds, keyed by
the file's real path, content hash and pixel size; the tile-cache branch of
``repro.engine.streaming`` keeps each window's digest per file-backed
reader and reads a window only when the cache images it.  Pinned here:

* staleness — a file rewritten in place (same size, same mtime, other
  cells) images as a fresh process images it, bit for bit;
* the mutability boundary — a dense array, an ``ArrayLayoutReader`` and a
  duck-typed reader mutated between two tile-cached calls image the
  mutation: only the file-backed readers keep digests;
* the saving itself — a warm call reads no window, a call after the tile
  cache was cleared reads exactly its misses, each once, in the imaging
  shares;
* concurrency — four threads imaging one file at once parse it once, image
  what the serial call images, and their tallies sum to the cache's.
"""

import gc
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from reference import reference_image_layout
import repro.api as api
from repro.backend import ComputeConfig
from repro.engine import (
    ZERO_TILE_DIGEST,
    EngineSpec,
    TileResultCache,
    TilingSpec,
    plan_tiles,
    streaming,
    tile_digest,
)
from repro.engine import tile_cache as tile_cache_module
from repro.layout import (
    ArrayLayoutReader,
    GDSBoundary,
    GDSCell,
    GDSReference,
    GeometryLayoutReader,
    HierarchicalLayoutReader,
    load_layout_file,
    load_layout_source,
    write_gds,
)
from repro.layout import files as files_module
from repro.layout import sources
from repro.layout.geometry import Rect
from repro.optics import OpticsConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
CACHED = ComputeConfig(tile_cache=True)
UNCACHED = ComputeConfig(tile_cache=False)
GUARD = 8


def chip_bytes(stub_nm: int) -> bytes:
    """A 512 nm chip: a 4 x 4 array of one cell on the 128 nm core pitch
    (repeating tiles) plus one placed stub ``stub_nm`` wide.  Every
    ``stub_nm`` of the same digit count gives a file of the same size."""
    square = GDSBoundary(1, ((0, 0), (48, 0), (48, 48), (0, 48)))
    stub = GDSBoundary(1, ((0, 0), (stub_nm, 0), (stub_nm, 64), (0, 64)))
    cells = {
        "A": GDSCell("A", [square], []),
        "B": GDSCell("B", [stub], []),
        "TOP": GDSCell("TOP", [], [
            GDSReference("A", (40, 40), columns=4, rows=4,
                         column_vector=(128, 0), row_vector=(0, 128)),
            GDSReference("B", (300, 300)),
        ]),
    }
    return write_gds(cells)


@pytest.fixture(autouse=True)
def fresh_memos(monkeypatch):
    """A private tile cache and no kept reader, before and after each test."""
    cache = TileResultCache()
    monkeypatch.setattr(tile_cache_module, "_default_cache", cache)
    sources._READERS.clear()
    yield cache
    sources._READERS.clear()


@pytest.fixture
def window_reads(monkeypatch):
    """Every ``read_window`` of a file-backed reader, as it happens."""
    reads = []
    for cls in (HierarchicalLayoutReader, GeometryLayoutReader):
        original = cls.read_window

        def spy(self, *window, _original=original):
            reads.append(window)
            return _original(self, *window)

        monkeypatch.setattr(cls, "read_window", spy)
    return reads


def image(layout, compute=CACHED):
    return api.image_layout(layout, CONFIG, compute=compute, guard_px=GUARD)


def assert_same_image(left, right):
    np.testing.assert_array_equal(left.aerial, right.aerial)
    np.testing.assert_array_equal(left.resist, right.resist)


class TestReaderMemo:
    def test_one_reader_per_file_content_and_pixel(self, tmp_path):
        path = str(tmp_path / "chip.gds")
        with open(path, "wb") as handle:
            handle.write(chip_bytes(24))
        reader = load_layout_source(path, 8.0)
        assert isinstance(reader, HierarchicalLayoutReader)
        assert load_layout_source(path, 8) is reader
        link = str(tmp_path / "link.gds")
        os.symlink(path, link)
        assert load_layout_source(link, 8.0) is reader
        assert load_layout_source(path, 4.0) is not reader

    def test_file_is_read_once_per_call(self, tmp_path, monkeypatch):
        path = str(tmp_path / "chip.gds")
        with open(path, "wb") as handle:
            handle.write(chip_bytes(24))
        opened = []
        real_open = open

        def spy(file, *args, **kwargs):
            if file == path:
                opened.append(args)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", spy)
        load_layout_source(path, 8.0)
        load_layout_source(path, 8.0)
        assert len(opened) == 2

    def test_rewritten_file_images_as_a_fresh_process(self, tmp_path):
        """Same size and mtime, other cells: the next call parses the new
        bytes, and its image is a fresh interpreter's bit for bit."""
        path = str(tmp_path / "chip.gds")
        before, after = chip_bytes(24), chip_bytes(72)
        assert len(before) == len(after) and before != after
        with open(path, "wb") as handle:
            handle.write(before)
        first = image(path)
        stamp = os.stat(path)
        with open(path, "wb") as handle:
            handle.write(after)
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        second = image(path)
        assert not np.array_equal(first.aerial, second.aerial)

        script = (
            "import sys, numpy as np\n"
            "import repro.api as api\n"
            "from repro.backend import ComputeConfig\n"
            "from repro.optics import OpticsConfig\n"
            "image = api.image_layout(sys.argv[1], OpticsConfig("
            "tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8), "
            "compute=ComputeConfig(tile_cache=True), "
            f"guard_px={GUARD})\n"
            "np.savez(sys.argv[2], aerial=image.aerial, resist=image.resist)\n")
        out = str(tmp_path / "fresh.npz")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        subprocess.run([sys.executable, "-c", script, path, out], env=env,
                       check=True, timeout=300)
        with np.load(out) as fresh:
            np.testing.assert_array_equal(second.aerial, fresh["aerial"])
            np.testing.assert_array_equal(second.resist, fresh["resist"])


class TestWindowDigests:
    def test_warm_call_reads_no_window(self, tmp_path, window_reads,
                                       fresh_memos):
        path = str(tmp_path / "chip.gds")
        with open(path, "wb") as handle:
            handle.write(chip_bytes(24))
        first = image(path)
        # The first call reads every window once, to digest it: a miss is
        # imaged from the window already read.
        assert len(window_reads) == first.num_tiles == 16
        assert 0 < first.tile_stats.misses < first.num_tiles
        del window_reads[:]
        warm = image(path)
        assert window_reads == []
        assert warm.tile_stats.misses == 0
        fresh_memos.clear()
        cold = image(path)
        assert len(window_reads) == cold.tile_stats.misses \
            == first.tile_stats.misses
        for repeat in (warm, cold):
            assert_same_image(repeat, first)
        assert_same_image(first, image(path, UNCACHED))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_misses_are_read_once_in_the_imaging_shares(
            self, tmp_path, monkeypatch, fresh_memos, workers):
        """A kept reader whose tiles left the cache reads each of its
        first-occurrence misses exactly once, inside the imaging shares —
        one share per ``fft_workers`` thread — and no hit window."""
        compute = ComputeConfig(fft_workers=workers, tile_cache=True)
        path = str(tmp_path / "chip.gds")
        with open(path, "wb") as handle:
            handle.write(chip_bytes(24))
        first = image(path, compute)
        reader = load_layout_source(path, CONFIG.pixel_size_nm)
        misses = {}  # digest -> the first window holding it, row-major
        for place in plan_tiles(*reader.shape, TilingSpec(32, GUARD)):
            window = (place.row - GUARD, place.col - GUARD, 32, 32)
            misses.setdefault(tile_digest(reader.read_window(*window)),
                              window)
        misses.pop(ZERO_TILE_DIGEST, None)
        reads = []
        original = HierarchicalLayoutReader.read_window

        def spy(self, *window):
            reads.append((window, threading.current_thread().name))
            return original(self, *window)

        monkeypatch.setattr(HierarchicalLayoutReader, "read_window", spy)
        fresh_memos.clear()
        cold = image(path, compute)
        assert cold.tile_stats.misses == len(misses) > 1
        assert sorted(window for window, _ in reads) == \
            sorted(misses.values())
        threads = {thread for _, thread in reads}
        # Contiguous shares (4 misses on 3 workers are 2 shares of 2), the
        # first on the calling thread; a helper may run two of them.
        shares = -(-len(misses) // -(-len(misses) // workers))
        assert threading.current_thread().name in threads
        assert min(2, shares) <= len(threads) <= shares
        assert_same_image(cold, first)

    def test_memo_is_bounded_per_reader(self, tmp_path, window_reads,
                                        monkeypatch):
        """Past the bound, windows are read and hashed on every call."""
        monkeypatch.setattr(streaming, "MAX_MEMO_WINDOWS", 5)
        path = str(tmp_path / "chip.gds")
        with open(path, "wb") as handle:
            handle.write(chip_bytes(24))
        first = image(path)
        del window_reads[:]
        again = image(path)
        assert len(window_reads) == first.num_tiles - 5
        assert_same_image(again, first)

    def test_memo_dies_with_its_reader(self, tmp_path):
        path = str(tmp_path / "chip.gds")
        with open(path, "wb") as handle:
            handle.write(chip_bytes(24))
        reader = load_layout_file(path, 8.0)
        engine = EngineSpec(config=CONFIG, compute=CACHED).build()
        engine.image_layout(reader, guard_px=GUARD)
        assert reader in streaming._WINDOW_DIGESTS
        count = len(streaming._WINDOW_DIGESTS)
        alive = weakref.ref(reader)
        del reader
        gc.collect()
        assert alive() is None
        assert len(streaming._WINDOW_DIGESTS) < count


class TestMutableSources:
    """Only the file-backed readers keep digests: anything a caller can
    mutate images the mutation on the next tile-cached call."""

    @staticmethod
    def raster() -> np.ndarray:
        rng = np.random.default_rng(5)
        cell = (rng.random((16, 16)) > 0.5).astype(float)
        return np.tile(cell, (4, 4))

    @staticmethod
    def mutate(raster: np.ndarray) -> None:
        raster[20:36, 20:36] = 1.0 - raster[20:36, 20:36]

    def check(self, source, raster):
        engine = EngineSpec(config=CONFIG, compute=UNCACHED).build()
        first = image(source)
        assert_same_image(first, reference_image_layout(
            engine, raster.copy(), guard_px=GUARD))
        self.mutate(raster)
        second = image(source)
        assert not np.array_equal(first.aerial, second.aerial)
        assert_same_image(second, reference_image_layout(
            engine, raster.copy(), guard_px=GUARD))

    def test_dense_array(self):
        raster = self.raster()
        self.check(raster, raster)

    def test_array_layout_reader(self):
        raster = self.raster()
        self.check(ArrayLayoutReader(raster), raster)

    def test_duck_typed_reader(self):
        raster = self.raster()

        class Reader:
            shape = raster.shape

            def read_window(self, row, col, height, width):
                return ArrayLayoutReader(raster).read_window(
                    row, col, height, width)

            def digest(self):
                return "duck"

        self.check(Reader(), raster)


def test_four_threads_on_one_file_parse_it_once(monkeypatch, fresh_memos):
    parses = []
    parse = files_module.parse_gds

    def slow_parse(*args, **kwargs):
        parses.append(args)
        time.sleep(0.05)  # every thread arrives while the first parses
        return parse(*args, **kwargs)

    monkeypatch.setattr(files_module, "parse_gds", slow_parse)
    path = os.path.join(REPO, "tests", "data", "hier4.gds")
    gate = threading.Barrier(4)
    results = [None] * 4

    def run(index):
        gate.wait()
        results[index] = api.image_layout(
            path, CONFIG, compute=ComputeConfig(tile_cache=True),
            guard_px=GUARD)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(parses) == 1
    serial = api.image_layout(path, CONFIG,
                              compute=ComputeConfig(tile_cache=False),
                              guard_px=GUARD)
    total = type(fresh_memos.stats)()
    for result in results:
        assert_same_image(result, serial)
        total += result.tile_stats
    assert total == fresh_memos.stats
    assert total.tiles == 4 * serial.num_tiles


@pytest.mark.parametrize("cls", ["geometry", "hierarchical"])
def test_reader_inputs_are_read_only(cls, tmp_path):
    """A reader's windows never change after construction — the rule the
    window-digest memo rests on."""
    if cls == "geometry":
        reader = GeometryLayoutReader({"1": [Rect(0, 0, 64, 64)]},
                                      pixel_size_nm=8.0, extent_nm=128.0)
    else:
        reader = HierarchicalLayoutReader(chip_bytes(24), pixel_size_nm=8.0)
    assert reader.layers == ("1",)
    with pytest.raises(AttributeError):
        reader.layers = ("2",)
    with pytest.raises(AttributeError):
        reader.pixel_size_nm = 4.0
    assert not hasattr(reader, "add_shape")
