"""Conformance of the one parallel path: shards on worker threads.

``ShardedExecutor.aerial_batch`` is the only place tiles run in parallel, and
``image_layout`` / ``ProcessWindowSweep.run`` reach it batch by batch.  Every
cell of

    num_workers {1, 2, 3} x backend {numpy, scipy, fakegpu}
    x precision {float64, float32} x tile cache {off, on}
    x layout source {dense raster, geometry reader, .gds hierarchy}

must equal the test-side oracle (``tests/reference.py``: cut every tile, one
``aerial_batch``, stitch, develop — no batching, cache, shards or threads)
**bit for bit**; a sweep must equal per-focus oracle aerials and the CD matrix
measured from them.  Also pinned: degenerate batches, what a raising shard
does to its siblings and to the executor, thread lifetime, and the shared
pool's counters under two concurrent campaigns.
"""

import os
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from reference import reference_image_layout
from repro.backend import ComputeConfig
from repro.engine import (
    EngineSpec,
    ShardedExecutor,
    TileResultCache,
    WorkerPool,
)
from repro.layout import GeometryLayoutReader, load_layout_file
from repro.layout.geometry import Rect
from repro.masks.layout import Layout
from repro.optics import OpticsConfig
from repro.optics.process_window import measure_cd, widest_feature_row
from repro.optics.source import CircularSource
from repro.sweep import FocusExposureGrid, ProcessWindowSweep

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
SOURCE = CircularSource(sigma=0.6)
GUARD = 8
HIER4 = os.path.join(os.path.dirname(__file__), "data", "hier4.gds")

WORKERS = (1, 2, 3)
BACKENDS = ("numpy", "scipy", "fakegpu")
PRECISIONS = ("float64", "float32")
SOURCES = ("dense", "geometry", "gds")


def _dense_raster() -> np.ndarray:
    raster = np.zeros((70, 90))
    raster[8:62, 20:28] = 1.0
    raster[8:62, 44:52] = 1.0
    raster[30:38, 56:84] = 1.0
    return raster


def _geometry_reader() -> GeometryLayoutReader:
    rng = np.random.default_rng(0)
    layout = Layout(extent_nm=768.0)
    for _ in range(60):
        x, y = rng.uniform(0, 704, 2)
        w, h = rng.uniform(16, 90, 2)
        layout.add("m1", Rect(float(x), float(y), float(w), float(h)))
    return GeometryLayoutReader.from_layout(layout, shape=(96, 96))


@pytest.fixture(scope="module")
def layouts():
    """source name -> (what the product is handed, its dense raster)."""
    geometry = _geometry_reader()
    hierarchy = load_layout_file(HIER4, pixel_size_nm=CONFIG.pixel_size_nm)
    dense = _dense_raster()
    return {
        "dense": (dense, dense),
        "geometry": (geometry, np.asarray(geometry.materialise(), float)),
        "gds": (hierarchy,
                np.asarray(hierarchy.read_window(0, 0, *hierarchy.shape),
                           float)),
    }


def _spec(backend: str, precision: str) -> EngineSpec:
    if backend == "scipy":
        pytest.importorskip("scipy.fft")
    return EngineSpec(config=CONFIG, source=SOURCE,
                      compute=ComputeConfig(fft_backend=backend,
                                            precision=precision))


def _executor(workers: int, tile_cache: bool, **kwargs) -> ShardedExecutor:
    return ShardedExecutor(
        num_workers=workers,
        tile_cache=TileResultCache() if tile_cache else None,
        compute=ComputeConfig(tile_cache=False), **kwargs)


# --------------------------------------------------------------------------- #
# the matrix
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", WORKERS)
def test_aerial_batch_equals_one_engine_call(workers, backend, precision):
    spec = _spec(backend, precision)
    masks = (np.random.default_rng(21).random((7, 32, 32)) > 0.7).astype(float)
    expected = spec.build().aerial_batch(masks)
    with _executor(workers, tile_cache=False) as executor:
        result = executor.aerial_batch(spec, masks)
        # 7 tiles over w workers: ceil(7 / w)-tile shards, all on the pool
        # — or the one inline shard.
        assert executor.pool.stats()["submitted"] == \
            {1: 0, 2: 2, 3: 3}[workers]
    assert result.dtype == expected.dtype
    np.testing.assert_array_equal(result, expected)


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("tile_cache", (False, True),
                         ids=("nocache", "tilecache"))
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", WORKERS)
def test_image_layout_equals_reference(workers, backend, precision,
                                       tile_cache, source, layouts):
    spec = _spec(backend, precision)
    layout, dense = layouts[source]
    expected = reference_image_layout(spec.build(), dense, guard_px=GUARD)
    with _executor(workers, tile_cache) as executor:
        result = executor.image_layout(spec, layout, guard_px=GUARD)
    np.testing.assert_array_equal(result.aerial, expected.aerial)
    np.testing.assert_array_equal(result.resist, expected.resist)
    assert result.num_tiles == expected.num_tiles
    assert result.aerial.dtype == expected.aerial.dtype


GRID = FocusExposureGrid((0.0, 80.0), (0.95, 1.05))


def _reference_sweep(backend, precision, dense):
    """Per-focus oracle aerials and the CD matrix measured from them."""
    base = _spec(backend, precision)
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
                                          tile_cache, source, layouts):
    if backend == "scipy":
        pytest.importorskip("scipy.fft")
    layout, dense = layouts[source]
    aerials, matrix = _reference_sweep(backend, precision, dense)
    compute = ComputeConfig(fft_backend=backend, precision=precision)
    with _executor(workers, tile_cache) as executor:
        outcome = ProcessWindowSweep(
            CONFIG, source=SOURCE, executor=executor, compute=compute).run(
                layout, grid=GRID, guard_px=GUARD, tolerance=0.3,
                target_cd_nm=64.0, keep_aerials=True)
    assert outcome.window.cd_matrix() == matrix
    for focus, expected in aerials.items():
        np.testing.assert_array_equal(outcome.aerials[focus], expected)
    assert outcome.num_workers == workers


# --------------------------------------------------------------------------- #
# degenerate batches
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("tiles", (0, 1, 2))
def test_fewer_tiles_than_workers(tiles):
    spec = _spec("numpy", "float64")
    masks = (np.random.default_rng(3).random((tiles, 32, 32)) > 0.7) \
        .astype(float)
    with _executor(3, tile_cache=False) as executor:
        result = executor.aerial_batch(spec, masks)
        # 0 or 1 tile is one inline shard; 2 tiles are 2 one-tile shards.
        assert executor.pool.stats()["submitted"] == (2 if tiles == 2 else 0)
    assert result.shape == (tiles, 32, 32)
    np.testing.assert_array_equal(result, spec.build().aerial_batch(masks))


# --------------------------------------------------------------------------- #
# a shard that raises
# --------------------------------------------------------------------------- #
class _HeldPool:
    """A pool whose futures settle only when the test says so."""

    def __init__(self):
        self.held = []

    def submit(self, fn, *args) -> Future:
        future = Future()
        self.held.append((future, fn, args))
        return future


def test_raising_shard_cancels_the_unstarted_ones_and_propagates():
    spec = _spec("numpy", "float64")
    masks = np.zeros((6, 32, 32))
    pool = _HeldPool()
    executor = ShardedExecutor(num_workers=3, pool=pool)  # 3 two-tile shards
    raised = []

    def image():
        try:
            executor.aerial_batch(spec, masks)
        except RuntimeError as exc:
            raised.append(exc)

    caller = threading.Thread(target=image)
    caller.start()
    try:
        while len(pool.held) < 3:  # the caller submits, then blocks
            assert caller.is_alive()
            caller.join(timeout=0.01)
        first = pool.held[0][0]
        assert first.set_running_or_notify_cancel()
        first.set_exception(RuntimeError("shard 0 broke"))
    finally:
        caller.join(timeout=30)
    assert not caller.is_alive()
    assert [str(exc) for exc in raised] == ["shard 0 broke"]
    # The shards that had not started never will: a worker thread that
    # dequeues a cancelled future drops it.
    assert all(future.cancelled() for future, _, _ in pool.held[1:])


def test_executor_images_correctly_after_a_shard_raised(monkeypatch):
    spec = _spec("numpy", "float64")
    masks = (np.random.default_rng(5).random((6, 32, 32)) > 0.7).astype(float)
    expected = spec.build().aerial_batch(masks)
    with _executor(3, tile_cache=False) as executor:
        engine = executor.warm(spec)
        healthy = engine.aerial_batch

        def poisoned(shard, output_shape=None, out=None):
            if (shard < 0).any():
                raise RuntimeError("a middle shard broke")
            return healthy(shard, output_shape=output_shape, out=out)

        poison = masks.copy()
        poison[3] = -1.0  # in the second of three two-tile shards
        monkeypatch.setattr(engine, "aerial_batch", poisoned)
        with pytest.raises(RuntimeError, match="a middle shard broke"):
            executor.aerial_batch(spec, poison)
        monkeypatch.undo()
        assert executor.pool.stats()["submitted"] == 3
        np.testing.assert_array_equal(executor.aerial_batch(spec, masks),
                                      expected)
    stats = executor.pool.stats()
    assert stats["submitted"] == stats["completed"] == 6


def test_close_leaves_no_worker_thread_alive():
    def repro_threads():
        return [thread.name for thread in threading.enumerate()
                if thread.name.startswith("repro-")]

    spec = _spec("numpy", "float64")
    masks = np.zeros((4, 32, 32))
    before = repro_threads()
    executor = ShardedExecutor(num_workers=2)
    executor.aerial_batch(spec, masks)
    assert len(repro_threads()) > len(before)
    executor.close()
    assert repro_threads() == before
    executor.close()  # idempotent
    # ... and a closed executor starts fresh threads on demand.
    assert executor.aerial_batch(spec, masks).shape == (4, 32, 32)
    executor.close()
    assert repro_threads() == before


# --------------------------------------------------------------------------- #
# one pool, several campaigns
# --------------------------------------------------------------------------- #
def test_shared_pool_drains_two_concurrent_campaigns(layouts):
    pool = WorkerPool(2)
    compute = ComputeConfig(fft_backend="numpy", precision="float64")
    outcomes, errors = {}, []

    def campaign(name):
        try:
            with ShardedExecutor(num_workers=2, pool=pool,
                                 compute=ComputeConfig(tile_cache=False),
                                 ) as executor:
                outcomes[name] = ProcessWindowSweep(
                    CONFIG, source=SOURCE, executor=executor,
                    compute=compute).run(
                        layouts[name][0], grid=GRID, guard_px=GUARD,
                        tolerance=0.3, target_cd_nm=64.0)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    runners = [threading.Thread(target=campaign, args=(name,))
               for name in ("dense", "geometry")]
    for runner in runners:
        runner.start()
    for runner in runners:
        runner.join(timeout=120)
    assert not any(runner.is_alive() for runner in runners)
    assert errors == []
    # An executor never stops a pool it was handed ...
    assert any(thread.name.startswith("repro-worker")
               for thread in threading.enumerate())
    pool.shutdown()  # ... its owner does; joined, so every callback has run
    stats = pool.stats()
    assert stats["submitted"] == stats["completed"] > 0
    for name, outcome in outcomes.items():
        _, matrix = _reference_sweep("numpy", "float64", layouts[name][1])
        assert outcome.window.cd_matrix() == matrix
