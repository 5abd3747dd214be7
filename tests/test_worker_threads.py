"""Conformance of the one parallel path: the batched core's shares.

A ``batched.image_tiles`` call is the only place tiles are imaged in
parallel — it spends the spec's ``fft_workers`` on shares of its tiles —
and ``ShardedExecutor.aerial_batch`` / ``image_layout`` /
``ProcessWindowSweep.run`` reach it batch by batch.  Every cell of

    fft_workers {1, 2, 3} x backend {numpy, numpy-shares, transforms-only}
    x precision {float64, float32} x tile cache {off, on}
    x layout source {dense raster, geometry reader, .gds hierarchy}

must equal the test-side oracle (``tests/reference.py``: cut every tile, one
one-thread ``aerial_batch``, stitch, develop — no batching, cache or
threads) **bit for bit**.  A ``numpy-shares`` cell runs the numpy
backend on a budget one above the axis' (2, 3, 4); it, and a numpy cell
with a budget of two or three, must have run shares on the ``repro-block``
helper threads.  A sweep must equal per-focus oracle aerials and
the CD matrix measured from them.  Also pinned: degenerate batches, what a
raising share does to its siblings and to the executor, thread lifetime,
and two concurrent campaigns on the service's campaign pool.
"""

import os
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from reference import (
    SHARES,
    TRANSFORMS_ONLY,
    assert_ran_on_shares,
    reference_image_layout,
    threads_seen,
    transforms_only_engines,
)
from repro.backend import ComputeConfig
from repro.engine import (
    EngineSpec,
    ShardedExecutor,
    TileResultCache,
    batched,
    open_layout_dir,
)
from repro.engine import tile_cache as tile_cache_module
from repro.layout import GeometryLayoutReader, load_layout_file
from repro.layout.geometry import Rect
from repro.optics import OpticsConfig
from repro.optics.process_window import measure_cd, widest_feature_row
from repro.optics.resist import ConstantThresholdResist
from repro.optics.source import CircularSource
from repro.service.jobs import WorkerPool
from repro.sweep import FocusExposureGrid, ProcessWindowSweep

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
SOURCE = CircularSource(sigma=0.6)
GUARD = 8
HIER4 = os.path.join(os.path.dirname(__file__), "data", "hier4.gds")

WORKERS = (1, 2, 3)
BACKENDS = ("numpy", SHARES, TRANSFORMS_ONLY)
PRECISIONS = ("float64", "float32")
SOURCES = ("dense", "geometry", "gds")


@pytest.fixture(autouse=True)
def _cells_take_their_path(request):
    """A transforms-only cell must transform through a
    :class:`~reference.RecordingBackend` — not through the backend it wraps
    — and a numpy cell with a budget of two or more must run shares on the
    helper threads, so neither can collapse into the one-share numpy
    cell."""
    params = getattr(request.node, "callspec", None)
    params = params.params if params else {}
    if params.get("backend") == TRANSFORMS_ONLY:
        with transforms_only_engines() as recorder:
            yield
        assert recorder.calls, \
            "the cell never reached the transforms-only backend"
    elif params.get("backend") == SHARES or (
            params.get("backend") == "numpy" and params.get("workers", 1) > 1):
        with threads_seen() as seen:
            yield
        assert_ran_on_shares(seen)
    else:
        yield


def _dense_raster() -> np.ndarray:
    raster = np.zeros((70, 90))
    raster[8:62, 20:28] = 1.0
    raster[8:62, 44:52] = 1.0
    raster[30:38, 56:84] = 1.0
    return raster


def _geometry_reader() -> GeometryLayoutReader:
    rng = np.random.default_rng(0)
    rects = []
    for _ in range(60):
        x, y = rng.uniform(0, 704, 2)
        w, h = rng.uniform(16, 90, 2)
        rects.append(Rect(float(x), float(y), float(w), float(h)))
    return GeometryLayoutReader({"m1": rects}, 768.0 / 96, shape=(96, 96))


@pytest.fixture(scope="module")
def layouts():
    """source name -> (what the product is handed, its dense raster)."""
    geometry = _geometry_reader()
    hierarchy = load_layout_file(HIER4, pixel_size_nm=CONFIG.pixel_size_nm)
    dense = _dense_raster()
    return {
        "dense": (dense, dense),
        "geometry": (geometry,
                     np.asarray(geometry.read_window(0, 0, *geometry.shape),
                                float)),
        "gds": (hierarchy,
                np.asarray(hierarchy.read_window(0, 0, *hierarchy.shape),
                           float)),
    }


def _compute(backend: str, precision: str, workers: int = 1,
             tile_cache: bool = False) -> ComputeConfig:
    """A transforms-only cell's backend is the autouse fixture's business;
    a ``numpy-shares`` cell's budget is one above the axis'."""
    return ComputeConfig(fft_workers=workers + (backend == SHARES),
                         precision=precision, tile_cache=tile_cache)


def _spec(backend: str, precision: str, workers: int = 1,
          tile_cache: bool = False) -> EngineSpec:
    return EngineSpec(config=CONFIG, source=SOURCE, compute=_compute(
        backend, precision, workers, tile_cache))


def _private_tile_cache(monkeypatch, tile_cache: bool) -> None:
    """A cached case gets a fresh process-wide tile cache of its own."""
    if tile_cache:
        monkeypatch.setattr(tile_cache_module, "_default_cache",
                            TileResultCache())


def _breaking(monkeypatch, message, when=lambda masks: True):
    """Make every block whose masks satisfy ``when`` raise ``message``."""
    for name in ("_band_limited_chunk", "_direct_chunk"):
        healthy = getattr(batched, name)

        def chunk(masks, *args, healthy=healthy):
            if when(masks):
                raise RuntimeError(message)
            return healthy(masks, *args)

        monkeypatch.setattr(batched, name, chunk)


# --------------------------------------------------------------------------- #
# the matrix
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", WORKERS)
def test_aerial_batch_equals_one_engine_call(workers, backend, precision):
    masks = (np.random.default_rng(21).random((7, 32, 32)) > 0.7).astype(float)
    expected = _spec("numpy", precision).build().aerial_batch(masks)
    with ShardedExecutor() as executor:
        result = executor.aerial_batch(_spec(backend, precision, workers),
                                       masks)
    assert result.dtype == expected.dtype
    np.testing.assert_array_equal(result, expected)


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("tile_cache", (False, True),
                         ids=("nocache", "tilecache"))
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", WORKERS)
def test_image_layout_equals_reference(workers, backend, precision,
                                       tile_cache, source, layouts,
                                       monkeypatch):
    layout, dense = layouts[source]
    expected = reference_image_layout(_spec("numpy", precision).build(),
                                      dense, guard_px=GUARD)
    _private_tile_cache(monkeypatch, tile_cache)
    with ShardedExecutor() as executor:
        result = executor.image_layout(
            _spec(backend, precision, workers, tile_cache), layout,
            guard_px=GUARD)
    np.testing.assert_array_equal(result.aerial, expected.aerial)
    np.testing.assert_array_equal(result.resist, expected.resist)
    assert result.num_tiles == expected.num_tiles
    assert result.aerial.dtype == expected.aerial.dtype


@pytest.mark.parametrize("out_dir", (False, True), ids=("memory", "out_dir"))
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", (1, 2, 3, 4))
def test_uncached_layout_in_small_blocks_equals_reference(
        workers, backend, precision, out_dir, monkeypatch, tmp_path):
    """The uncached layout path reads, images, stitches and develops inside
    the thread shares: one tile per block, so every share walks several
    blocks, in memory or into ``out_dir`` memmaps — the bits never move."""
    layout = (np.random.default_rng(17).random((70, 90)) > 0.7).astype(float)
    expected = reference_image_layout(_spec("numpy", precision).build(),
                                      layout, guard_px=GUARD)
    monkeypatch.setattr(batched, "BLOCK_BYTES", 1)
    engine = _spec(backend, precision, workers).build()
    directory = str(tmp_path / "out") if out_dir else None
    result = engine.image_layout(layout, guard_px=GUARD, out_dir=directory)
    assert result.num_tiles == expected.num_tiles == 30
    np.testing.assert_array_equal(np.asarray(result.aerial), expected.aerial)
    np.testing.assert_array_equal(np.asarray(result.resist), expected.resist)
    assert result.aerial.dtype == expected.aerial.dtype
    if out_dir:
        aerial, resist, _ = open_layout_dir(directory)
        np.testing.assert_array_equal(np.asarray(aerial), expected.aerial)
        np.testing.assert_array_equal(np.asarray(resist), expected.resist)


GRID = FocusExposureGrid((0.0, 80.0), (0.95, 1.05))


def _reference_sweep(precision, dense):
    """Per-focus oracle aerials and the CD matrix measured from them."""
    base = _spec("numpy", precision)
    aerials = {focus: reference_image_layout(
        base.with_focus(focus).build(), dense, guard_px=GUARD).aerial
        for focus in GRID.focus_values_nm}
    row = int(widest_feature_row(
        aerials[GRID.nominal_focus_nm]
        > CONFIG.resist_threshold / GRID.nominal_dose))
    matrix = {focus: {dose: measure_cd(
        (aerials[focus] > CONFIG.resist_threshold / dose).astype(np.uint8),
        row=row, pixel_size_nm=CONFIG.pixel_size_nm)
        for dose in GRID.dose_values} for focus in GRID.focus_values_nm}
    return aerials, matrix


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("tile_cache", (False, True),
                         ids=("nocache", "tilecache"))
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", WORKERS)
def test_sweep_equals_per_focus_reference(workers, backend, precision,
                                          tile_cache, source, layouts,
                                          monkeypatch):
    compute = _compute(backend, precision, workers, tile_cache)
    layout, dense = layouts[source]
    aerials, matrix = _reference_sweep(precision, dense)
    _private_tile_cache(monkeypatch, tile_cache)
    with ShardedExecutor() as executor:
        outcome = ProcessWindowSweep(
            CONFIG, source=SOURCE, executor=executor, compute=compute).run(
                layout, grid=GRID, guard_px=GUARD, tolerance=0.3,
                target_cd_nm=64.0, keep_aerials=True)
    assert outcome.window.cd_matrix() == matrix
    for focus, expected in aerials.items():
        np.testing.assert_array_equal(outcome.aerials[focus], expected)


# --------------------------------------------------------------------------- #
# degenerate batches
# --------------------------------------------------------------------------- #
class _CountingHelpers:
    """Stands in for the core's helper threads, counting the shares handed
    to them."""

    def __init__(self, pool):
        self.pool, self.submitted = pool, 0

    def submit(self, fn, *args) -> Future:
        self.submitted += 1
        return self.pool.submit(fn, *args)


@pytest.mark.parametrize("tiles", (0, 1, 2))
def test_fewer_tiles_than_workers(tiles, monkeypatch):
    spec = _spec("numpy", "float64", workers=3)
    masks = (np.random.default_rng(3).random((tiles, 32, 32)) > 0.7) \
        .astype(float)
    helpers = _CountingHelpers(batched._helper_threads())
    monkeypatch.setattr(batched, "_helper_threads", lambda: helpers)
    with ShardedExecutor() as executor:
        result = executor.aerial_batch(spec, masks)
    # 0 or 1 tile is the caller's alone; 2 tiles are 2 one-tile shares.
    assert helpers.submitted == (1 if tiles == 2 else 0)
    assert result.shape == (tiles, 32, 32)
    np.testing.assert_array_equal(
        result, _spec("numpy", "float64").build().aerial_batch(masks))


# --------------------------------------------------------------------------- #
# a share that raises
# --------------------------------------------------------------------------- #
class _HeldPool:
    """Helper threads whose futures settle only when the test says so."""

    def __init__(self):
        self.held = []

    def submit(self, fn, *args) -> Future:
        future = Future()
        self.held.append((future, fn, args))
        return future


def test_raising_shard_cancels_the_unstarted_ones_and_propagates(
        monkeypatch):
    spec = _spec("numpy", "float64", workers=3)  # 3 two-tile shares
    masks = np.zeros((6, 32, 32))
    pool = _HeldPool()
    monkeypatch.setattr(batched, "_helper_threads", lambda: pool)
    _breaking(monkeypatch, "share 0 broke")
    with pytest.raises(RuntimeError, match="share 0 broke"):
        ShardedExecutor().aerial_batch(spec, masks)
    # The caller's own share raised while the other two were still queued:
    # they never start (a helper thread drops a cancelled future).
    assert len(pool.held) == 2
    assert all(future.cancelled() for future, _, _ in pool.held)


def test_executor_images_correctly_after_a_shard_raised(monkeypatch):
    spec = _spec("numpy", "float64", workers=3)
    masks = (np.random.default_rng(5).random((6, 32, 32)) > 0.7).astype(float)
    expected = _spec("numpy", "float64").build().aerial_batch(masks)
    with ShardedExecutor() as executor:
        poison = masks.copy()
        poison[3] = -1.0  # in the second of three two-tile shares
        with monkeypatch.context() as patch:
            patch.setattr(batched, "BLOCK_BYTES", 1)  # one tile per block
            _breaking(patch, "a middle share broke",
                      when=lambda block: (block < 0).any())
            with pytest.raises(RuntimeError, match="a middle share broke"):
                executor.aerial_batch(spec, poison)
        np.testing.assert_array_equal(executor.aerial_batch(spec, masks),
                                      expected)


def test_a_share_raising_mid_layout_settles_the_others_first(monkeypatch,
                                                             tmp_path):
    """Three shares of a 30-tile layout, one tile per block: the calling
    thread's share raises at its second tile while the helpers' shares are
    still imaging.  The error propagates only after every other share
    stopped writing, the ``out_dir`` gets no ``meta.json``, and the next
    call images it all.  Then the same through the tile cache, whose
    batch is stitched and developed in three shares: a ``develop`` that
    raises in a helper's share."""
    layout = (np.random.default_rng(8).random((70, 90)) > 0.7).astype(float)
    poison = layout.copy()
    # In the windows of tiles 1, 2, 7 and 8 (rows 0-1, columns 1-2 of the
    # 5 x 6 grid) only: all of them the first share's.
    poison[12:18, 28:34] = -1.0
    engine = _spec("numpy", "float64", workers=3).build()
    expected = reference_image_layout(_spec("numpy", "float64").build(),
                                      layout, guard_px=GUARD)
    imaged = []
    monkeypatch.setattr(batched, "BLOCK_BYTES", 1)
    healthy = batched._band_limited_chunk

    def chunk(masks, *args):
        if (masks < 0).any():
            raise RuntimeError("a middle share broke")
        threading.Event().wait(0.005)  # the others are mid-layout
        imaged.append(len(masks))
        return healthy(masks, *args)

    monkeypatch.setattr(batched, "_band_limited_chunk", chunk)
    out_dir = tmp_path / "broken"
    with pytest.raises(RuntimeError, match="a middle share broke"):
        engine.image_layout(poison, guard_px=GUARD, out_dir=str(out_dir))
    settled = len(imaged)
    threading.Event().wait(0.05)
    assert len(imaged) == settled  # nobody was still imaging
    assert 0 < settled < 30
    assert not (out_dir / "meta.json").exists()
    with pytest.raises(FileNotFoundError):
        open_layout_dir(str(out_dir))
    result = engine.image_layout(layout, guard_px=GUARD,
                                 out_dir=str(out_dir))
    np.testing.assert_array_equal(np.asarray(result.aerial), expected.aerial)
    np.testing.assert_array_equal(np.asarray(result.resist), expected.resist)
    assert (out_dir / "meta.json").exists()

    monkeypatch.setattr(batched, "_band_limited_chunk", healthy)
    engine.tile_cache = TileResultCache()
    developed, lock = [], threading.Lock()
    develop = ConstantThresholdResist.develop

    def breaking(self, aerial):
        helper = threading.current_thread().name.startswith("repro-block")
        with lock:
            developed.append(helper)
            if helper and developed.count(True) == 2:
                raise RuntimeError("a helper's stitch broke")
        threading.Event().wait(0.005)  # the others are mid-stitch
        return develop(self, aerial)

    monkeypatch.setattr(ConstantThresholdResist, "develop", breaking)
    out_dir = tmp_path / "broken-cached"
    with pytest.raises(RuntimeError, match="a helper's stitch broke"):
        engine.image_layout(layout, guard_px=GUARD, out_dir=str(out_dir))
    settled = len(developed)
    threading.Event().wait(0.05)
    assert len(developed) == settled  # nobody was still stitching
    assert False in developed and 0 < settled < 30
    assert not (out_dir / "meta.json").exists()
    monkeypatch.setattr(ConstantThresholdResist, "develop", develop)
    result = engine.image_layout(layout, guard_px=GUARD,
                                 out_dir=str(out_dir))
    np.testing.assert_array_equal(np.asarray(result.aerial), expected.aerial)
    np.testing.assert_array_equal(np.asarray(result.resist), expected.resist)
    assert result.tile_stats.misses == 0
    assert (out_dir / "meta.json").exists()


@pytest.mark.parametrize("backend,workers,helpers", [
    ("numpy", 2, True), ("numpy", 1, False), (SHARES, 2, True),
    (TRANSFORMS_ONLY, 2, False)])
def test_a_cached_batch_is_stitched_in_the_imaging_shares(
        backend, workers, helpers, layouts, monkeypatch):
    """A tile-cached batch's cores are stitched and developed in the shares
    ``image_tiles`` would use — on a helper thread too when the backend
    shares tiles out — cold and warm, and equal the reference."""
    dense, _ = layouts["dense"]
    engine = _spec(backend, "float64", workers).build()
    engine.tile_cache = TileResultCache()
    expected = reference_image_layout(engine, dense, guard_px=GUARD)
    threads = set()
    develop = ConstantThresholdResist.develop

    def spy(self, aerial):
        threads.add(threading.current_thread().name)
        return develop(self, aerial)

    monkeypatch.setattr(ConstantThresholdResist, "develop", spy)
    for warm in (False, True):
        threads.clear()
        image = engine.image_layout(dense, guard_px=GUARD)
        assert image.num_tiles == 30 and (image.tile_stats.misses == 0) == warm
        np.testing.assert_array_equal(image.aerial, expected.aerial)
        np.testing.assert_array_equal(image.resist, expected.resist)
        assert threading.current_thread().name in threads
        assert any(name.startswith("repro-block") for name in threads) \
            == helpers


def test_close_leaves_no_worker_thread_alive():
    def repro_threads():
        # The core's kept helper threads are process-wide by design.
        return sorted(thread.name for thread in threading.enumerate()
                      if thread.name.startswith("repro-")
                      and not thread.name.startswith("repro-block"))

    before = repro_threads()
    executor = ShardedExecutor()
    executor.aerial_batch(_spec("numpy", "float64", workers=2),
                          np.zeros((4, 32, 32)))
    assert repro_threads() == before  # an executor starts no thread
    executor.close()
    assert len(executor._engines) == 0

    pool = WorkerPool(2)
    for future in [pool.submit(threading.Event().wait, 0.01)
                   for _ in range(4)]:
        future.result()
    assert len(repro_threads()) > len(before)
    pool.shutdown()
    assert repro_threads() == before
    pool.shutdown()  # idempotent
    stats = pool.stats()
    assert stats["submitted"] == stats["completed"] == 4


# --------------------------------------------------------------------------- #
# one pool, several campaigns
# --------------------------------------------------------------------------- #
def test_shared_pool_drains_two_concurrent_campaigns(layouts):
    pool = WorkerPool(2)
    compute = ComputeConfig(precision="float64", tile_cache=False)

    def campaign(name):
        with ShardedExecutor() as executor:
            return ProcessWindowSweep(
                CONFIG, source=SOURCE, executor=executor,
                compute=compute).run(
                    layouts[name][0], grid=GRID, guard_px=GUARD,
                    tolerance=0.3, target_cd_nm=64.0)

    futures = {name: pool.submit(campaign, name)
               for name in ("dense", "geometry")}
    outcomes = {name: future.result(timeout=120)
                for name, future in futures.items()}
    pool.shutdown()  # joined, so every callback has run
    stats = pool.stats()
    assert stats["submitted"] == stats["completed"] == 2
    for name, outcome in outcomes.items():
        _, matrix = _reference_sweep("float64", layouts[name][1])
        assert outcome.window.cd_matrix() == matrix
