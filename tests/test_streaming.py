"""Tests for the layout-imaging pipeline (repro.engine.streaming).

Pinned guarantees:

* the batch-by-batch pipeline is **bit-for-bit** the plain unbatched
  reference (``tests/reference.py``: full tile stack, one ``aerial_batch``,
  stitch, develop) — across guard bands, batch sizes, FFT backends (numpy /
  scipy) and precisions (float64 / float32), including a hypothesis sweep
  over random layout geometries,
* one default-batch rule: a dense raster and the same raster behind a reader
  image in the same ``stream_batch_tiles`` batches,
* ``iter_tile_batches`` covers every placement exactly once and never
  materialises more than one batch,
* the ``out_dir`` memmap layout round-trips through ``open_layout_dir``
  (self-describing ``.npy`` files + ``meta.json``), and a rejected call
  leaves no file behind, and
* memmapped *inputs* work: a layout opened with ``mmap_mode="r"`` streams
  through without being loaded wholesale.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_image_layout, stream_batches
from repro.backend import ComputeConfig
from repro.engine import execution
from repro.engine import (
    EngineSpec,
    TileResultCache,
    TilingSpec,
    extract_tile_batch,
    extract_tiles,
    iter_tile_batches,
    open_layout_dir,
    plan_tiles,
    stitch_into,
    stream_image_layout,
)
from repro.layout import as_layout_reader
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
    """Every batch has one shape: a lazy iterator over the reader's windows."""

    def test_batches_cover_all_placements_once(self, layout):
        spec = TilingSpec(tile_px=32, guard_px=8)
        placements = plan_tiles(*layout.shape, spec)
        seen = []
        for windows, subset in iter_tile_batches(as_layout_reader(layout),
                                                 placements, spec, 3):
            assert len(list(windows)) == len(subset) <= 3
            seen.extend(subset)
        assert seen == placements

    def test_batches_match_full_extraction(self, layout):
        spec = TilingSpec(tile_px=32, guard_px=8)
        full, placements = extract_tiles(layout, spec)
        streamed = np.stack(
            [window for windows, _ in iter_tile_batches(
                as_layout_reader(layout), placements, spec, 4)
             for window in windows])
        np.testing.assert_array_equal(streamed, full)

    def test_extract_tile_batch_is_a_slice_of_extract_tiles(self, layout):
        spec = TilingSpec(tile_px=32, guard_px=6)
        full, placements = extract_tiles(layout, spec)
        subset = placements[2:5]
        np.testing.assert_array_equal(
            list(extract_tile_batch(as_layout_reader(layout), subset, spec)),
            full[2:5])

    def test_batch_tiles_validation(self, layout):
        spec = TilingSpec(tile_px=32, guard_px=0)
        with pytest.raises(ValueError):
            list(iter_tile_batches(as_layout_reader(layout),
                                   plan_tiles(*layout.shape, spec), spec, 0))

    def test_stitch_into_is_split_inverse(self, layout):
        """Incremental stitch of the raw tiles reproduces the layout exactly."""
        spec = TilingSpec(tile_px=32, guard_px=8)
        placements = plan_tiles(*layout.shape, spec)
        out = np.zeros_like(layout)
        for windows, subset in iter_tile_batches(as_layout_reader(layout),
                                                 placements, spec, 5):
            stitch_into(out, list(windows), subset, spec)
        np.testing.assert_array_equal(out, layout)


class TestStreamingEqualsInMemory:
    @pytest.mark.parametrize("backend_name,precision", [
        ("numpy", "float64"),
        ("numpy", "float32"),
        ("scipy", "float64"),
        ("scipy", "float32"),
    ])
    @pytest.mark.parametrize("guard_px", [0, 8])
    def test_bit_for_bit_across_policies(self, layout, backend_name,
                                         precision, guard_px):
        if backend_name == "scipy":
            pytest.importorskip("scipy.fft")
        engine = EngineSpec(config=CONFIG, source=SOURCE,
                            compute=ComputeConfig(fft_backend=backend_name,
                                                  precision=precision)).build()
        reference = reference_image_layout(engine, layout, guard_px=guard_px)
        with stream_batches(engine, 3):
            streamed = engine.image_layout(layout, guard_px=guard_px)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        np.testing.assert_array_equal(streamed.resist, reference.resist)
        assert streamed.num_tiles == reference.num_tiles
        assert streamed.aerial.dtype == reference.aerial.dtype

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
        32 px tiles of spectrum, the (5, 14, 14) fields being smaller."""
        tiling = TilingSpec(tile_px=32, guard_px=8)
        assert engine.kernels.shape == (5, 7, 7)
        assert engine.stream_batch_tiles(tiling) == 2 ** 28 // (32 * 32 * 16)
        single = EngineSpec(config=CONFIG, source=SOURCE,
                            compute=ComputeConfig(precision="float32")).build()
        assert single.stream_batch_tiles(tiling) == 2 ** 28 // (32 * 32 * 8)

    def test_dense_raster_and_reader_share_one_default_batch_rule(
            self, engine, monkeypatch, tmp_path):
        """36 tiles under a 5-tile RAM bound: a dense raster, the same raster
        behind the reader protocol and an ``out_dir`` run all image in the
        same ``stream_batch_tiles`` batches — and a bound that holds every
        tile (any layout the benchmark images) is still one batch."""
        calls = []
        plain = engine.aerial_batch
        monkeypatch.setattr(
            engine, "aerial_batch",
            lambda tiles, **kw: calls.append(len(tiles)) or plain(tiles, **kw))
        dense = (np.random.default_rng(3).random((96, 96)) > 0.7).astype(float)
        whole = engine.image_layout(dense, guard_px=8)
        assert calls == [36] and whole.num_tiles == 36
        monkeypatch.setattr(execution, "RESIDENT_BLOCK_BYTES",
                            5 * 32 * 32 * 16)
        del calls[:]
        bounded = engine.image_layout(dense, guard_px=8)
        assert calls == [5] * 7 + [1]
        del calls[:]
        via_reader = engine.image_layout(as_layout_reader(dense), guard_px=8)
        assert calls == [5] * 7 + [1]
        del calls[:]
        on_disk = engine.image_layout(dense, guard_px=8,
                                      out_dir=str(tmp_path / "out"))
        assert calls == [5] * 7 + [1]
        for image in (bounded, via_reader, on_disk):
            np.testing.assert_array_equal(image.aerial, whole.aerial)
            np.testing.assert_array_equal(image.resist, whole.resist)


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
                                out_dir=str(out_dir), **kwargs)
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
