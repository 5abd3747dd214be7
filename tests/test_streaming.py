"""Tests for the layout-imaging pipeline (repro.engine.streaming).

Pinned guarantees:

* the batch-by-batch pipeline is **bit-for-bit** the plain unbatched
  reference (``tests/reference.py``: full tile stack, one ``aerial_batch``,
  stitch, develop) — across guard bands, batch sizes, one share or a
  budget of two spent on shares, and precisions (float64 / float32),
  including a hypothesis sweep
  over random layout geometries,
* one default-batch rule: a dense raster and the same raster behind a reader
  image in the same ``stream_batch_tiles`` batches,
* the tile cache sees every placement exactly once, in row-major stream
  batches whose rows are the reader's windows; without it, a dense
  raster's windows are written straight into the shares' mask buffers,
* the ``out_dir`` memmap layout round-trips through ``open_layout_dir``
  (self-describing ``.npy`` files + ``meta.json``), and a rejected call
  leaves no file behind, and
* memmapped *inputs* work: a layout opened with ``mmap_mode="r"`` streams
  through without being loaded wholesale.
"""

import contextlib
import json
import os

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
from repro.engine import execution, streaming
from repro.engine import (
    EngineSpec,
    TileResultCache,
    TilingSpec,
    extract_tiles,
    open_layout_dir,
    plan_tiles,
    stitch_tiles,
    stream_image_layout,
)
from repro.layout import (
    ArrayLayoutReader,
    GeometryLayoutReader,
    as_layout_reader,
)
from repro.layout.geometry import Rect
from repro.optics import OpticsConfig
from repro.optics.source import CircularSource

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
SOURCE = CircularSource(sigma=0.6)


@pytest.fixture(scope="module")
def engine():
    return EngineSpec(config=CONFIG, source=SOURCE).build()


@pytest.fixture(scope="module")
def layout():
    rng = np.random.default_rng(11)
    return (rng.random((90, 122)) > 0.72).astype(float)


class TestTileBatching:
    """The tile cache sees the placements in stream batches, row-major."""

    def test_batches_cover_all_placements_once(self, engine, layout):
        cache = RecordingTileCache()
        cached = execution.ExecutionEngine(engine.kernels, tile_size_px=32,
                                           tile_cache=cache)
        with stream_batches(cached, 3):
            image = cached.image_layout(layout, guard_px=8)
        assert [len(batch) for batch in cache.batches[:-1]] == \
            [3] * (len(cache.batches) - 1)
        assert 0 < len(cache.batches[-1]) <= 3
        assert sum(map(len, cache.batches)) == image.num_tiles

    def test_batches_match_full_extraction(self, engine, layout):
        """The rows a batch hands the cache — read or not yet read — are
        ``extract_tiles``' windows in order."""
        spec = TilingSpec(tile_px=32, guard_px=8)
        full, _ = extract_tiles(layout, spec)
        cache = RecordingTileCache()
        cached = execution.ExecutionEngine(engine.kernels, tile_size_px=32,
                                           tile_cache=cache)
        with stream_batches(cached, 4):
            cached.image_layout(layout, tiling=spec)
        np.testing.assert_array_equal(
            np.stack([row for batch in cache.batches for row in batch]),
            full)

    def test_extract_tiles_is_one_read_window_per_placement(self, layout):
        spec = TilingSpec(tile_px=32, guard_px=6)
        full, placements = extract_tiles(layout, spec)
        assert placements == plan_tiles(*layout.shape, spec)
        reader = as_layout_reader(layout)
        np.testing.assert_array_equal(
            [reader.read_window(place.row - 6, place.col - 6, 32, 32)
             for place in placements], full)

    def test_batch_tiles_validation(self, engine, layout):
        with pytest.raises(ValueError, match="batch_tiles"):
            stream_image_layout(as_layout_reader(layout),
                                TilingSpec(tile_px=32), None, None,
                                np.float64, 0, None)

    def test_stitch_tiles_is_split_inverse(self, layout):
        """Stitching the raw tiles reproduces the layout exactly; a stack
        of another length than the placements is refused."""
        spec = TilingSpec(tile_px=32, guard_px=8)
        tiles, placements = extract_tiles(layout, spec)
        np.testing.assert_array_equal(
            stitch_tiles(tiles, placements, *layout.shape, spec), layout)
        with pytest.raises(ValueError, match="tile images for"):
            stitch_tiles(tiles[1:], placements, *layout.shape, spec)


class TestStreamingEqualsInMemory:
    @pytest.mark.parametrize("workers,precision", [
        (1, "float64"), (1, "float32"), (2, "float64"), (2, "float32"),
    ])
    @pytest.mark.parametrize("guard_px", [0, 8])
    def test_bit_for_bit_across_policies(self, layout, workers,
                                         precision, guard_px):
        engine = EngineSpec(config=CONFIG, source=SOURCE,
                            compute=ComputeConfig(fft_workers=workers,
                                                  precision=precision)).build()
        reference = reference_image_layout(engine, layout, guard_px=guard_px)
        with stream_batches(engine, 3), threads_seen() as seen:
            streamed = engine.image_layout(layout, guard_px=guard_px)
        if workers > 1:
            assert_ran_on_shares(seen)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        np.testing.assert_array_equal(streamed.resist, reference.resist)
        assert streamed.num_tiles == reference.num_tiles
        assert streamed.aerial.dtype == reference.aerial.dtype

    @pytest.mark.parametrize("workers,precision", [
        (1, "float64"), (2, "float32"),
    ])
    def test_a_dense_raster_is_read_into_the_mask_buffers(
            self, layout, workers, precision, monkeypatch):
        """Uncached, the dense raster's reader writes every placement's
        window straight into its share's mask buffer (``out=``, in the
        engine's dtype): no window is allocated and copied again."""
        engine = EngineSpec(config=CONFIG, source=SOURCE,
                            compute=ComputeConfig(fft_workers=workers,
                                                  precision=precision)).build()
        reference = reference_image_layout(engine, layout, guard_px=8)
        reads = []
        read_window = ArrayLayoutReader.read_window

        def spy(reader, *window, out=None):
            reads.append((window, None if out is None else out.dtype))
            return read_window(reader, *window, out=out)

        monkeypatch.setattr(ArrayLayoutReader, "read_window", spy)
        with stream_batches(engine, 3):
            streamed = engine.image_layout(layout, guard_px=8)
        placements = plan_tiles(*layout.shape, TilingSpec(32, 8))
        assert sorted(reads) == sorted(
            ((place.row - 8, place.col - 8, 32, 32),
             engine.precision.real_dtype) for place in placements)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        np.testing.assert_array_equal(streamed.resist, reference.resist)

    @pytest.mark.parametrize("workers,precision", [
        (1, "float64"), (1, "float32"), (2, "float64"), (2, "float32"),
    ])
    @pytest.mark.parametrize("guard_px", [0, 8])
    def test_bit_for_bit_with_window_digests_kept(self, layout, workers,
                                                  precision, guard_px):
        """The same matrix through the tile cache, on a geometry reader
        whose window digests the pipeline keeps: the first call (every
        window read and digested), a repeat on a cold cache (only its
        misses read) and a warm repeat (no window read) all equal the
        reference."""
        rows, cols = np.nonzero(layout)
        reader = GeometryLayoutReader(
            {"m1": [Rect(8.0 * col, 8.0 * row, 8.0, 8.0)
                    for row, col in zip(rows, cols)]},
            pixel_size_nm=8.0, shape=layout.shape)
        np.testing.assert_array_equal(
            reader.read_window(0, 0, *reader.shape), layout)
        compute = ComputeConfig(fft_workers=workers, precision=precision)
        plain = EngineSpec(config=CONFIG, source=SOURCE,
                           compute=compute).build()
        reference = reference_image_layout(plain, layout, guard_px=guard_px)
        first, repeat = (execution.ExecutionEngine(
            plain.kernels, tile_size_px=32, tile_cache=TileResultCache(),
            compute=compute) for _ in range(2))
        for engine in (first, repeat, repeat):
            with stream_batches(engine, 3), threads_seen() as seen:
                streamed = engine.image_layout(reader, guard_px=guard_px)
            if workers > 1 and engine is first:
                assert_ran_on_shares(seen)
            np.testing.assert_array_equal(streamed.aerial, reference.aerial)
            np.testing.assert_array_equal(streamed.resist, reference.resist)
        assert streamed.tile_stats.hits == streamed.num_tiles \
            - streamed.tile_stats.zero_hits

    @pytest.mark.parametrize("batch_tiles", [1, 2, 7, None])
    def test_bit_for_bit_across_batch_sizes(self, engine, layout, batch_tiles):
        reference = reference_image_layout(engine, layout, guard_px=8)
        with stream_batches(engine, batch_tiles):
            streamed = engine.image_layout(layout, guard_px=8)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        np.testing.assert_array_equal(streamed.resist, reference.resist)

    @settings(max_examples=10, deadline=None)
    @given(height=st.integers(20, 70), width=st.integers(20, 70),
           guard=st.integers(0, 12), batch=st.integers(1, 5),
           seed=st.integers(0, 2 ** 16))
    def test_bit_for_bit_random_geometry(self, engine, height, width, guard,
                                         batch, seed):
        rng = np.random.default_rng(seed)
        layout = (rng.random((height, width)) > 0.7).astype(float)
        reference = reference_image_layout(engine, layout, guard_px=guard)
        with stream_batches(engine, batch):
            streamed = engine.image_layout(layout, guard_px=guard)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        np.testing.assert_array_equal(streamed.resist, reference.resist)

    def test_default_batch_matches_engine_chunk(self, engine):
        """The stream layer's RAM bound is the 2**28-byte arithmetic a
        device-resident engine cuts its upload blocks by: 16 384 complex128
        32 px tiles of spectrum, the (3, 14, 14) fields being smaller."""
        tiling = TilingSpec(tile_px=32, guard_px=8)
        assert engine.kernels.shape == (3, 7, 7)
        assert engine.stream_batch_tiles(tiling) == 2 ** 28 // (32 * 32 * 16)
        single = EngineSpec(config=CONFIG, source=SOURCE,
                            compute=ComputeConfig(precision="float32")).build()
        assert single.stream_batch_tiles(tiling) == 2 ** 28 // (32 * 32 * 8)

    def test_dense_raster_and_reader_share_one_default_batch_rule(
            self, engine, monkeypatch, tmp_path):
        """36 tiles: a dense raster, the same raster behind the reader
        protocol and an ``out_dir`` run each image in one call of the imaging
        loop over all 36 — and none goes through ``aerial_batch``'s stack."""
        calls = []
        loop = execution.image_tiles

        def spy(count, read, write, **kwargs):
            calls.append(count)
            return loop(count, read, write, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("the uncached path stacked its tiles")

        monkeypatch.setattr(execution, "image_tiles", spy)
        monkeypatch.setattr(engine, "aerial_batch", refuse)
        dense = (np.random.default_rng(3).random((96, 96)) > 0.7).astype(float)
        whole = engine.image_layout(dense, guard_px=8)
        assert calls == [36] and whole.num_tiles == 36
        del calls[:]
        via_reader = engine.image_layout(as_layout_reader(dense), guard_px=8)
        on_disk = engine.image_layout(dense, guard_px=8,
                                      out_dir=str(tmp_path / "out"))
        assert calls == [36] * 2
        for image in (via_reader, on_disk):
            np.testing.assert_array_equal(image.aerial, whole.aerial)
            np.testing.assert_array_equal(image.resist, whole.resist)

    def test_tile_cache_misses_go_through_the_same_loop(self, engine,
                                                        monkeypatch):
        """With a tile cache, each stream batch's misses are one call of
        the same imaging loop, which writes every image straight into the
        cache and returns no stack; ``aerial_batch`` is never entered."""
        cached = execution.ExecutionEngine(engine.kernels, tile_size_px=32,
                                           tile_cache=TileResultCache())
        cell = (np.random.default_rng(5).random((16, 16)) > 0.5).astype(float)
        dense = np.tile(cell, (6, 6))
        reference = reference_image_layout(engine, dense, guard_px=8)
        calls = []
        loop = execution.image_tiles

        def spy(count, read, write, **kwargs):
            result = loop(count, read, write, **kwargs)
            calls.append((count, write, result))
            return result

        def refuse(*args, **kwargs):
            raise AssertionError("a miss went through aerial_batch")

        monkeypatch.setattr(execution, "image_tiles", spy)
        monkeypatch.setattr(cached, "aerial_batch", refuse)
        with stream_batches(cached, 9):
            image = cached.image_layout(dense, guard_px=8)
        np.testing.assert_array_equal(image.aerial, reference.aerial)
        np.testing.assert_array_equal(image.resist, reference.resist)
        assert 0 < image.tile_stats.misses < image.num_tiles == 36
        assert all(callable(write) and result is None
                   for _, write, result in calls)
        assert sum(count for count, _, _ in calls) == image.tile_stats.misses
        assert len(calls) <= 4


class TestUnzeroedRasters:
    """The in-memory aerial / resist come from ``np.empty``: every pixel is
    written by the one core that owns it, or the output is wrong.  The
    allocator's rasters are poisoned (NaN, or every byte 0xAB) so that a
    skipped core shows — repeating an identical op would hide one, because
    the heap hands back the last op's values."""

    @staticmethod
    @contextlib.contextmanager
    def poisoned(fill):
        allocate = streaming._allocate

        def poison(out_dir, name, shape, dtype):
            raster = allocate(out_dir, name, shape, dtype)
            if out_dir is None:
                if fill == "nan" and raster.dtype.kind == "f":
                    raster[...] = np.nan
                else:
                    raster.view(np.uint8)[...] = 0xAB
            return raster

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(streaming, "_allocate", poison)
            yield

    @staticmethod
    def build(workers, precision, cached):
        engine = EngineSpec(config=CONFIG, source=SOURCE,
                            compute=ComputeConfig(
                                fft_workers=workers, precision=precision,
                                tile_cache=False)).build()
        engine.tile_cache = TileResultCache() if cached else None
        return engine

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("cached", [False, True])
    @settings(max_examples=8, deadline=None)
    @given(height=st.integers(20, 110), width=st.integers(20, 110),
           guard=st.integers(0, 12), batch=st.integers(1, 6),
           blank_rows=st.integers(0, 60),
           precision=st.sampled_from(["float64", "float32"]),
           fill=st.sampled_from(["nan", "0xab"]),
           seed=st.integers(0, 2 ** 16))
    def test_every_pixel_is_written(self, cached, workers, height, width,
                                    guard, batch, blank_rows, precision,
                                    fill, seed):
        """Random ragged geometries (edge cores smaller than the core, some
        all-zero tiles), tile cache off / on, one or two stitching shares."""
        rng = np.random.default_rng(seed)
        layout = (rng.random((height, width)) > 0.7).astype(float)
        layout[:blank_rows] = 0.0
        engine = self.build(workers, precision, cached)
        reference = reference_image_layout(engine, layout, guard_px=guard)
        with self.poisoned(fill), stream_batches(engine, batch):
            image = engine.image_layout(layout, guard_px=guard)
        assert image.aerial.tobytes() == reference.aerial.tobytes()
        assert image.resist.tobytes() == reference.resist.tobytes()

    @pytest.mark.parametrize("cached", [False, True])
    def test_a_skipped_core_shows(self, cached, layout, monkeypatch):
        """The poison is visible: drop one placement from the plan and the
        output no longer equals the reference."""
        engine = self.build(2, "float64", cached)
        reference = reference_image_layout(engine, layout, guard_px=8)
        plan = streaming.plan_tiles
        monkeypatch.setattr(streaming, "plan_tiles", lambda *args: [
            place for index, place in enumerate(plan(*args)) if index != 5])
        with self.poisoned("nan"):
            image = engine.image_layout(layout, guard_px=8)
        skipped = plan(*layout.shape, image.tiling)[5]
        assert np.isnan(image.aerial).sum() \
            == skipped.core_h * skipped.core_w
        assert (image.resist == 0xAB).sum() \
            == skipped.core_h * skipped.core_w
        assert not np.array_equal(image.resist, reference.resist)


@pytest.mark.parametrize("workers", [1, 2])
def test_uncached_layout_holds_no_batch_of_tiles(workers):
    """A second 1024 px production-tile image peaks (traced allocations)
    below its aerial + resist + four blocks: the (36, 256, 256) window and
    result stacks of the old path, 18.9 MB each, no longer exist."""
    import tracemalloc

    from repro.engine import ExecutionEngine, batched

    engine = ExecutionEngine.for_optics(
        OpticsConfig(tile_size_px=256, pixel_size_nm=4.0),
        compute=ComputeConfig(fft_workers=workers, tile_cache=False))
    layout = (np.random.default_rng(0).random((1024, 1024)) > 0.6
              ).astype(float)
    engine.image_layout(layout)
    tracemalloc.start()
    try:
        image = engine.image_layout(layout)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert image.num_tiles == 36
    outputs = image.aerial.nbytes + image.resist.nbytes
    assert peak < outputs + 4 * batched.BLOCK_BYTES


@pytest.mark.parametrize("cached", [False, True])
def test_out_dir_peak_does_not_grow_with_the_layout(tmp_path, monkeypatch,
                                                    cached):
    """Imaging into ``out_dir`` memmaps, the traced peak is the pipeline's
    bounded buffers, not the layout: growing the layout 4x (256 -> 1024
    tiles) grows it < 1.5x, uncached (each share's 1 MiB blocks) and
    through the tile cache (stream batches of 32 tiles, which the small
    layout already fills).  The budgets are small so that an in-RAM copy of
    the 4x layout's outputs (9 MiB) would show.  The one per-tile structure
    is ``plan_tiles``' placement list, ~160 B a tile.  The layout repeats
    one tile core, so the cache holds the same 9 results at either size."""
    import tracemalloc

    from repro.engine import batched

    monkeypatch.setattr(batched, "BLOCK_BYTES", 2 ** 20)
    config = OpticsConfig(tile_size_px=64, pixel_size_nm=8.0,
                          max_socs_order=8)
    engine = EngineSpec(config=config, source=SOURCE,
                        compute=ComputeConfig(tile_cache=False)).build()
    cell = (np.random.default_rng(3).random((32, 32)) > 0.6).astype(float)
    peaks = []
    for reps in (16, 32):
        layout = np.tile(cell, (reps, reps))
        engine.tile_cache = TileResultCache() if cached else None
        with stream_batches(engine, 32):
            tracemalloc.start()
            try:
                image = engine.image_layout(
                    layout, guard_px=16, out_dir=str(tmp_path / f"{reps}"))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert image.num_tiles == reps * reps
        assert isinstance(image.aerial, np.memmap)
        if cached:
            assert image.tile_stats.misses == 9
        peaks.append(peak)
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_no_image_layout_takes_a_streaming_switch():
    """One pipeline: there is nothing left for a ``streaming=`` to select."""
    import inspect

    import repro.api
    from repro.engine import ExecutionEngine, ShardedExecutor
    from repro.sweep import ProcessWindowSweep

    for function in (ExecutionEngine.image_layout,
                     ShardedExecutor.image_layout, repro.api.image_layout,
                     ProcessWindowSweep.run, repro.api.sweep_window):
        assert "streaming" not in inspect.signature(function).parameters


class TestPipelineValidation:
    """A rejected call must not leave full-size rasters behind."""

    @pytest.mark.parametrize("bad", [
        {"batch_tiles": 0},
        {"tile_cache": TileResultCache()},      # no cache_context
    ])
    def test_rejected_call_creates_no_file(self, engine, layout, tmp_path,
                                           bad):
        out_dir = tmp_path / "rejected"
        kwargs = {"batch_tiles": 4, **bad}
        with pytest.raises(ValueError):
            stream_image_layout(as_layout_reader(layout),
                                TilingSpec(tile_px=32, guard_px=8),
                                engine.aerial_batch,
                                engine.resist_model.develop, np.float64,
                                share_threads=None, out_dir=str(out_dir),
                                **kwargs)
        assert not out_dir.exists()

    def test_engine_rejects_bad_batch_before_touching_out_dir(self, engine,
                                                              layout,
                                                              tmp_path):
        out_dir = tmp_path / "rejected"
        with stream_batches(engine, 0), \
                pytest.raises(ValueError, match="batch_tiles"):
            engine.image_layout(layout, guard_px=8, out_dir=str(out_dir))
        with pytest.raises(ValueError, match="2-D"):
            engine.image_layout(layout[None], guard_px=8,
                                out_dir=str(out_dir))
        # The bank's calibrated tile is checked up front, not by the loop.
        with pytest.raises(ValueError, match="48, 48.*32 px tile"):
            engine.image_layout(layout, tile_px=48, guard_px=8,
                                out_dir=str(out_dir))
        assert not out_dir.exists()


class TestMemmapOutput:
    def test_out_dir_roundtrip(self, engine, layout, tmp_path):
        out_dir = str(tmp_path / "streamed")
        reference = reference_image_layout(engine, layout, guard_px=8)
        result = engine.image_layout(layout, guard_px=8, out_dir=out_dir)
        assert isinstance(result.aerial, np.memmap)
        assert result.out_dir == out_dir
        np.testing.assert_array_equal(np.asarray(result.aerial),
                                      reference.aerial)

        aerial, resist, meta = open_layout_dir(out_dir)
        np.testing.assert_array_equal(np.asarray(aerial), reference.aerial)
        np.testing.assert_array_equal(np.asarray(resist), reference.resist)
        assert meta["shape"] == list(layout.shape)
        assert meta["tile_px"] == 32 and meta["guard_px"] == 8
        assert meta["num_tiles"] == reference.num_tiles
        assert meta["aerial_dtype"] == "float64"
        assert meta["backend"] == engine.backend.name
        assert meta["precision"] == engine.precision.name

    def test_open_layout_dir_requires_meta(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_layout_dir(str(tmp_path))

    def test_a_torn_meta_write_leaves_no_completion_marker(
            self, engine, layout, tmp_path, monkeypatch):
        """``meta.json`` marks the directory complete, so a write that dies
        half way (kill, full disk) must publish nothing — not a torn JSON
        that ``open_layout_dir`` chokes on."""
        from repro.engine import streaming

        def half_a_dump(payload, handle, **kwargs):
            handle.write(json.dumps(payload, **kwargs)[:40])
            handle.flush()
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(streaming.json, "dump", half_a_dump)
        out_dir = tmp_path / "torn"
        with pytest.raises(OSError, match="No space left"):
            engine.image_layout(layout, guard_px=8, out_dir=str(out_dir))
        monkeypatch.undo()
        assert sorted(os.listdir(out_dir)) == ["aerial.npy", "resist.npy"]
        with pytest.raises(FileNotFoundError, match="not a completed"):
            open_layout_dir(str(out_dir))

    def test_memmap_layout_input_streams(self, engine, layout, tmp_path):
        """An np.load(..., mmap_mode='r') layout goes straight through."""
        path = str(tmp_path / "layout.npy")
        np.save(path, layout)
        mapped = np.load(path, mmap_mode="r")
        reference = reference_image_layout(engine, layout, guard_px=8)
        with stream_batches(engine, 4):
            streamed = engine.image_layout(mapped, guard_px=8)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)

    def test_out_dir_files_exist(self, engine, layout, tmp_path):
        out_dir = str(tmp_path / "d")
        engine.image_layout(layout, guard_px=8, out_dir=out_dir)
        assert sorted(os.listdir(out_dir)) == ["aerial.npy", "meta.json",
                                               "resist.npy"]
