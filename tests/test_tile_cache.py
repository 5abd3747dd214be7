"""Tests for the content-addressed tile-result cache (repro.engine.tile_cache).

Pinned guarantees:

* deduplicated imaging is **bit-for-bit** the uncached result — across one
  share and shares, precisions (float64 / float32), serial and sharded
  execution, in-memory and streaming paths, including a hypothesis
  sweep over random layout geometries,
* a 2x2 instance array of one cell images exactly one unique tile; the
  other three are served from the cache (:class:`TileCacheStats` observable),
* all-zero tiles are served by the constant fast path without ever calling
  the imaging function,
* the oracle's tile stack (``extract_tiles``) is an ``np.empty`` allocation
  whose every row is written, one ``read_window`` per placement, in the
  reader's dtype; ``tile_digest`` tags exactly the all-zero windows
  ``ZERO_TILE_DIGEST``,
* each pixel moves once: geometry readers rasterise ``uint8`` windows equal
  value-for-value to the float raster, only misses are read (straight into
  the imaging loop's mask buffer), an all-hit batch allocates nothing
  tile-sized and its rows *are* the cache entries,
* cache entries are owned read-only ``(core, core)`` arrays — the guard band
  is never kept — so the LRU budget bounds memory in core bytes,
* the disk tier survives torn files, files of the wrong shape or dtype
  (a whole guard-banded ``tile`` included) and concurrent writers of one
  key,
* the disk tier round-trips imaged tiles to a fresh cache instance, and the
  LRU tier evicts oldest-first under a byte budget, and
* a campaign store accumulates the sweep's cache counters and the rendered
  report shows them.
"""

import dataclasses
import functools
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    NUMPY,
    SHARES,
    assert_ran_on_shares,
    reference_image_layout,
    stack_imaging,
    stream_batches,
    threads_seen,
)
from repro.backend import ComputeConfig
from repro.engine import (
    ZERO_TILE_DIGEST,
    ExecutionEngine,
    ShardedExecutor,
    TileCacheContext,
    TileCacheStats,
    TileResultCache,
    TilingSpec,
    extract_tiles,
    plan_tiles,
    resolve_tile_cache,
    tile_digest,
)
from repro.engine import tile_cache as tile_cache_module
from repro.layout import ArrayLayoutReader, GeometryLayoutReader
from repro.layout.geometry import Rect, rasterize
from repro.optics import OpticsConfig
from repro.optics.source import CircularSource

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
SOURCE = CircularSource(sigma=0.6)

CONTEXT = TileCacheContext(kernel_fingerprint="bank", backend="numpy",
                           precision="float64", tile_px=4, guard_px=0)


def tripling(context=CONTEXT):
    """An imaging loop for ``context`` whose "aerial" is three times the
    mask, recording every miss stack it was handed."""
    return stack_imaging(lambda batch: batch * 3.0, context)


@functools.lru_cache(maxsize=None)
def engine_pair(workers, precision):
    """(uncached, cached) engines sharing optics; kernel banks come from the
    process-wide kernel cache, so each pair is built once per session."""
    compute = ComputeConfig(fft_workers=workers, precision=precision,
                            tile_cache=False)
    build = functools.partial(ExecutionEngine.for_optics, CONFIG,
                              source=SOURCE, compute=compute)
    return build(), build(tile_cache=TileResultCache())


class TestTileDigest:
    def test_content_addressing(self):
        tile = np.arange(16.0).reshape(4, 4)
        assert tile_digest(tile) == tile_digest(tile.copy())
        assert tile_digest(tile) != tile_digest(tile + 1)
        assert tile_digest(tile) != tile_digest(tile.astype(np.float32))
        assert tile_digest(tile) != tile_digest(tile.reshape(2, 8))
        assert tile_digest(tile) != ZERO_TILE_DIGEST

    def test_key_prefix_separates_policies(self):
        prefixes = {
            CONTEXT.key_prefix(),
            dataclasses.replace(CONTEXT, backend="recording").key_prefix(),
            dataclasses.replace(CONTEXT, precision="float32").key_prefix(),
            dataclasses.replace(CONTEXT, guard_px=8).key_prefix(),
            dataclasses.replace(CONTEXT, kernel_fingerprint="x").key_prefix(),
        }
        assert len(prefixes) == 5


class TestWindowDigests:
    """The reader's own windows, one ``read_window`` per placement;
    :func:`tile_digest` alone says which of them are empty."""

    LAYOUT = np.zeros((64, 64))
    LAYOUT[8:24, 8:24] = 1.0  # content only in the top-left tile

    def test_digest_mode_matches_plain_mode(self):
        """What the pipeline's cache branch digests — the reader's windows —
        is, row for row, what the oracle stacks, and ``ZERO_TILE_DIGEST``
        tags exactly the all-zero rows; every other one is digested by
        content."""
        spec = TilingSpec(tile_px=32, guard_px=8)
        stack, placements = extract_tiles(self.LAYOUT, spec)
        reader = ArrayLayoutReader(self.LAYOUT)
        windows = [reader.read_window(place.row - 8, place.col - 8, 32, 32)
                   for place in placements]
        assert len(windows) == len(stack) == len(placements)
        digests = [tile_digest(window) for window in windows]
        assert 0 < digests.count(ZERO_TILE_DIGEST) < len(digests)
        for window, digest, row in zip(windows, digests, stack):
            assert window.dtype == stack.dtype
            np.testing.assert_array_equal(window, row)
            assert (digest == ZERO_TILE_DIGEST) == (not row.any())
            assert digest == tile_digest(row)
        non_zero = [d for d in digests if d != ZERO_TILE_DIGEST]
        assert all(len(d) == 40 for d in non_zero)  # sha1 hex, not a tag

    def test_every_row_is_written(self, monkeypatch):
        """Pin the np.zeros -> np.empty switch: poison the allocation with
        NaNs and require that the one stack is fully overwritten."""
        real_empty = np.empty
        stacks = []

        def poisoned_empty(shape, dtype=float, **kwargs):
            out = real_empty(shape, dtype=dtype, **kwargs)
            if out.ndim == 3:
                stacks.append(out.shape)
            if np.issubdtype(out.dtype, np.floating):
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", poisoned_empty)
        spec = TilingSpec(tile_px=32, guard_px=8)
        tiles, placements = extract_tiles(self.LAYOUT, spec)
        assert np.isfinite(tiles).all()
        assert stacks == [tiles.shape]

    def test_windows_are_kept_as_the_reader_produced_them(self):
        """Each placement is exactly one ``read_window`` call, and uint8
        coverage stays uint8, in the reader's windows and in the oracle's
        stack alike."""
        reader = GeometryLayoutReader({"m1": [Rect(0, 0, 64, 64)]},
                                      pixel_size_nm=8.0, extent_nm=512.0)
        produced = []
        real_read = reader.read_window
        reader.read_window = lambda *args: (produced.append(real_read(*args)),
                                            produced[-1])[1]
        spec = TilingSpec(tile_px=32, guard_px=0)
        stack, placements = extract_tiles(reader, spec)
        assert placements == plan_tiles(*reader.shape, spec)
        assert len(produced) == len(placements)
        assert produced[0].dtype == stack.dtype == np.uint8
        digests = [tile_digest(window) for window in produced]
        assert digests.count(ZERO_TILE_DIGEST) == len(placements) - 1
        assert digests[0] != ZERO_TILE_DIGEST
        np.testing.assert_array_equal(stack, produced)


class TestTileResultCache:
    def batch(self):
        tile_a = np.full((4, 4), 2.0)
        tile_b = np.arange(16.0).reshape(4, 4)
        tiles = np.stack([tile_a, tile_b, tile_a, np.zeros((4, 4))])
        digests = [tile_digest(tile_a), tile_digest(tile_b),
                   tile_digest(tile_a), ZERO_TILE_DIGEST]
        return tiles, digests

    def test_images_unique_tiles_once_and_scatters(self):
        cache = TileResultCache()
        tiles, digests = self.batch()
        image = tripling()
        out, tally = cache.image_tile_batch(tiles, digests, image, CONTEXT)
        assert len(image.batches) == 1
        np.testing.assert_array_equal(image.batches[0], tiles[:2])
        np.testing.assert_array_equal(out[:3], tiles[:3] * 3.0)
        np.testing.assert_array_equal(out[3], 0.0)
        assert dataclasses.asdict(cache.stats) == {
            "tiles": 4, "hits": 1, "zero_hits": 1, "disk_loads": 0,
            "misses": 2, "evictions": 0, "disk_errors": 0}
        assert tally == cache.stats and tally is not cache.stats

    def test_second_batch_is_served_entirely_from_memory(self):
        cache = TileResultCache()
        tiles, digests = self.batch()
        first, _ = cache.image_tile_batch(tiles, digests, tripling(),
                                          CONTEXT)
        image = tripling()
        second, tally = cache.image_tile_batch(tiles, digests, image,
                                               CONTEXT)
        assert image.batches == []  # nothing imaged the second time
        np.testing.assert_array_equal(second, first)
        assert (cache.stats.tiles, cache.stats.misses) == (8, 2)
        # The call's own tally: this batch only, every tile served.
        assert (tally.tiles, tally.misses) == (4, 0)

    def test_zero_fast_path_never_calls_image_batch(self):
        cache = TileResultCache()
        tiles = np.zeros((3, 4, 4))
        image = tripling()
        out, _ = cache.image_tile_batch(tiles, [ZERO_TILE_DIGEST] * 3, image,
                                        CONTEXT)
        assert image.batches == []
        np.testing.assert_array_equal(out, 0.0)
        assert cache.stats.zero_hits == 3 and len(cache) == 0

    def test_output_dtype_follows_precision_not_input(self):
        """Every served row — imaged, duplicate, and the zero tile nothing
        imaged — carries the context precision's dtype, whatever the
        windows' dtype was."""
        cache = TileResultCache()
        tiles, digests = self.batch()
        context = dataclasses.replace(CONTEXT, precision="float32")
        out, _ = cache.image_tile_batch(tiles, digests, tripling(context),
                                        context)
        assert [row.dtype for row in out] == [np.float32] * 4
        assert [row.shape for row in out] == [(4, 4)] * 4
        assert np.stack(out).dtype == np.float32

    def test_windows_may_be_an_unstacked_sequence_with_holes(self):
        """The extractor's contract: a list in the reader's dtype, ``None``
        at zero rows; only first-occurrence misses are read, each cast as
        it lands in the imaging loop's mask buffer."""
        cache = TileResultCache()
        tile_a = np.full((4, 4), 2, dtype=np.uint8)
        tile_b = np.arange(16, dtype=np.uint8).reshape(4, 4)
        windows = [tile_a, None, tile_b, tile_a.copy()]
        digests = [tile_digest(tile_a), ZERO_TILE_DIGEST,
                   tile_digest(tile_b), tile_digest(tile_a)]
        image = tripling()
        out, _ = cache.image_tile_batch(windows, digests, image, CONTEXT)
        assert len(image.batches) == 1
        assert image.batches[0].dtype == np.float64
        np.testing.assert_array_equal(image.batches[0],
                                      np.stack([tile_a, tile_b]))
        np.testing.assert_array_equal(
            np.stack(out), np.stack([tile_a * 3.0, np.zeros((4, 4)),
                                     tile_b * 3.0, tile_a * 3.0]))

    def test_all_hit_batch_is_zero_copy(self):
        """A warm batch never images, allocates nothing tile-stack-sized, and
        hands back the cache's own (read-only) entries."""
        import tracemalloc

        side, count = 64, 8
        context = dataclasses.replace(CONTEXT, tile_px=side)
        rng = np.random.default_rng(5)
        tiles = rng.random((count, side, side))
        digests = [tile_digest(tile) for tile in tiles]
        cache = TileResultCache()
        cache.image_tile_batch(tiles, digests, tripling(context), context)

        def refuse(count, read, write):
            raise AssertionError("an all-hit batch must not be imaged")

        tracemalloc.start()
        try:
            out, _ = cache.image_tile_batch(tiles, digests, refuse, context)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tiles[0].nbytes  # not one tile, let alone (N, t, t)
        entries = list(cache._memory.values())
        for row, tile in zip(out, tiles):
            assert any(np.shares_memory(row, entry) for entry in entries)
            np.testing.assert_array_equal(row, tile * 3.0)
        assert cache.stats.hits == count and cache.stats.misses == count

    def test_eviction_frees_memory_and_entries_are_read_only(self):
        """Regression: entries used to be row views of the imaged batch, so
        evicting one freed nothing while the byte count said otherwise.
        Every served row is an owned array of its own (an evicted one dies
        with the caller's reference), never a view of a shared block."""
        tile_bytes = np.zeros((4, 4)).nbytes
        cache = TileResultCache(max_bytes=2 * tile_bytes)
        tiles = np.arange(5 * 16, dtype=float).reshape(5, 4, 4) + 1.0
        digests = [tile_digest(tile) for tile in tiles]
        out, _ = cache.image_tile_batch(tiles, digests, tripling(), CONTEXT)
        assert cache.stats.evictions == 3 and len(cache) == 2
        survivors = list(cache._memory.values())
        assert all(row.base is None for row in out)
        assert not any(np.shares_memory(out[a], out[b])
                       for a in range(len(out)) for b in range(a))
        assert cache._memory_bytes == sum(entry.nbytes
                                          for entry in survivors)
        served, _ = cache.image_tile_batch(tiles[-1:], digests[-1:],
                                           tripling(), CONTEXT)
        np.testing.assert_array_equal(served[0], tiles[-1] * 3.0)
        with pytest.raises(ValueError, match="read-only"):
            served[0][0, 0] = 7.0
        zero, _ = cache.image_tile_batch([None], [ZERO_TILE_DIGEST],
                                         tripling(), CONTEXT)
        with pytest.raises(ValueError, match="read-only"):
            zero[0][0, 0] = 7.0

    def test_lru_evicts_oldest_under_byte_budget(self):
        tile = np.zeros((4, 4))
        cache = TileResultCache(max_bytes=int(tile.nbytes * 1.5))
        for value in (1.0, 2.0, 3.0):
            cache.image_tile_batch(np.full((1, 4, 4), value),
                                   [tile_digest(np.full((4, 4), value))],
                                   tripling(), CONTEXT)
        assert len(cache) == 1 and cache.stats.evictions == 2
        # The newest entry survived; the oldest must be re-imaged.
        image = tripling()
        cache.image_tile_batch(np.full((1, 4, 4), 3.0),
                               [tile_digest(np.full((4, 4), 3.0))],
                               image, CONTEXT)
        assert image.batches == []
        cache.image_tile_batch(np.full((1, 4, 4), 1.0),
                               [tile_digest(np.full((4, 4), 1.0))],
                               image, CONTEXT)
        assert len(image.batches) == 1

    def test_disk_tier_round_trips_to_a_fresh_cache(self, tmp_path):
        tiles, digests = self.batch()
        warm = TileResultCache(cache_dir=str(tmp_path))
        expected, _ = warm.image_tile_batch(tiles, digests, tripling(),
                                            CONTEXT)
        cold = TileResultCache(cache_dir=str(tmp_path))
        image = tripling()
        out, _ = cold.image_tile_batch(tiles, digests, image, CONTEXT)
        assert image.batches == []  # every tile came from disk or the batch
        np.testing.assert_array_equal(out, expected)
        assert cold.stats.disk_loads == 2
        assert cold.stats.misses == 0

    def test_clear_keeps_disk(self, tmp_path):
        tiles, digests = self.batch()
        cache = TileResultCache(cache_dir=str(tmp_path))
        cache.image_tile_batch(tiles, digests, tripling(), CONTEXT)
        cache.clear()
        assert len(cache) == 0 and cache.stats.tiles == 0
        cache.image_tile_batch(tiles, digests, tripling(), CONTEXT)
        assert cache.stats.disk_loads == 2

    def test_stats_taken_before_a_clear_keep_counting(self):
        """``.stats`` is the one live object: cleared in place, never
        rebound, so a reference held across ``clear()`` sees what follows."""
        tiles, digests = self.batch()
        cache = TileResultCache()
        held = cache.stats
        cache.image_tile_batch(tiles, digests, tripling(), CONTEXT)
        cache.clear()
        assert held is cache.stats and held == TileCacheStats()
        cache.image_tile_batch(tiles, digests, tripling(), CONTEXT)
        assert (held.tiles, held.misses, held.hits, held.zero_hits) == \
            (4, 2, 1, 1)

    def test_entries_are_owned_read_only_cores(self, tmp_path):
        """A guard-banded tile is kept as its core only: every entry —
        imaged or loaded from disk — is an owned, read-only, C-contiguous
        ``(core, core)`` array, and the LRU budget counts those bytes."""
        context = dataclasses.replace(CONTEXT, tile_px=8, guard_px=2)
        tiles = np.arange(3 * 64, dtype=float).reshape(3, 8, 8) + 1.0
        digests = [tile_digest(tile) for tile in tiles]
        core_bytes = np.zeros((4, 4)).nbytes
        for source in ("imaged", "disk"):
            cache = TileResultCache(cache_dir=str(tmp_path),
                                    max_bytes=2 * core_bytes)
            image = tripling(context)
            out, _ = cache.image_tile_batch(tiles, digests, image, context)
            assert (image.batches == []) == (source == "disk")
            assert cache.stats.evictions == 1 and len(cache) == 2
            assert cache._memory_bytes == 2 * core_bytes
            for row, tile in zip(out, tiles):
                assert row.shape == (4, 4) and row.base is None
                assert row.flags.c_contiguous and not row.flags.writeable
                np.testing.assert_array_equal(row, tile[2:6, 2:6] * 3.0)

    @pytest.mark.parametrize("damage", ["truncated", "empty", "garbage",
                                        "flipped"])
    def test_torn_disk_entry_is_a_counted_miss_and_is_overwritten(
            self, tmp_path, damage, caplog):
        """``flipped``: one byte changed inside a valid zip fails the
        member's CRC-32 — a miss like the rest, never a wrong tile."""
        tiles, digests = self.batch()
        warm = TileResultCache(cache_dir=str(tmp_path))
        expected, _ = warm.image_tile_batch(tiles, digests, tripling(),
                                            CONTEXT)
        files = sorted(tmp_path.glob("tiles-*.npz"))
        assert len(files) == 2
        intact = files[0].read_bytes()
        middle = len(intact) // 2
        files[0].write_bytes({"truncated": intact[:middle],
                              "empty": b"",
                              "garbage": b"not a zip archive",
                              "flipped": intact[:middle]
                              + bytes([intact[middle] ^ 0xFF])
                              + intact[middle + 1:]}[damage])
        cold = TileResultCache(cache_dir=str(tmp_path))
        image = tripling()
        out, _ = cold.image_tile_batch(tiles, digests, image, CONTEXT)
        np.testing.assert_array_equal(np.stack(out), np.stack(expected))
        assert len(image.batches) == 1 and len(image.batches[0]) == 1
        stats = cold.stats
        assert stats.disk_errors == 1 and stats.misses == 1
        assert stats.disk_loads == 1
        # ... and said: one WARNING under repro.engine, file + error class.
        (record,) = [r for r in caplog.records
                     if r.name.startswith("repro.engine")]
        assert record.levelname == "WARNING"
        assert str(files[0]) in record.getMessage()
        caplog.clear()
        assert stats.tiles == (stats.hits + stats.zero_hits
                               + stats.disk_loads + stats.misses)
        # The re-imaged tile replaced the torn file: a third cache reads it.
        assert not list(tmp_path.glob("*.tmp"))
        third = TileResultCache(cache_dir=str(tmp_path))
        third.image_tile_batch(tiles, digests, image, CONTEXT)
        assert len(image.batches) == 1 and third.stats.disk_errors == 0
        assert not caplog.records

    def test_a_failed_write_leaves_the_old_file_and_no_debris(
            self, tmp_path, monkeypatch):
        """Both disk tiers publish through this: an interrupted write never
        replaces — or tears — what readers can see."""
        from repro.engine.cache import save_npz_atomically

        path = tmp_path / "entry.npz"
        save_npz_atomically(str(path), tile=np.ones((2, 2)))
        before = path.read_bytes()

        def torn(stream, **arrays):
            stream.write(b"PK half a zip")
            raise KeyboardInterrupt

        monkeypatch.setattr(np, "savez_compressed", torn)
        with pytest.raises(KeyboardInterrupt):
            save_npz_atomically(str(path), tile=np.zeros((2, 2)))
        assert path.read_bytes() == before
        assert sorted(entry.name for entry in tmp_path.iterdir()) == \
            ["entry.npz"]

    def test_atomic_write_publishes_text_only_on_a_clean_exit(self, tmp_path):
        from repro.engine.cache import atomic_write

        path = tmp_path / "entry.json"
        with atomic_write(str(path)) as stream:
            stream.write("{}")
            assert not path.exists()  # nothing published mid-write
        assert path.read_text(encoding="utf-8") == "{}"
        with pytest.raises(RuntimeError):
            with atomic_write(str(tmp_path / "never.json")) as stream:
                stream.write("half")
                raise RuntimeError("stop")
        assert sorted(entry.name for entry in tmp_path.iterdir()) == \
            ["entry.json"]

    def test_concurrent_writers_of_one_key_leave_one_readable_file(
            self, tmp_path):
        """Two threads miss on the same tile at once (the barrier sits inside
        image_batch, after both look-ups): one entry, one intact file."""
        import threading

        side = 64
        context = dataclasses.replace(CONTEXT, tile_px=side)
        tile = np.random.default_rng(11).random((1, side, side))
        digests = [tile_digest(tile[0])]
        cache = TileResultCache(cache_dir=str(tmp_path))
        barrier = threading.Barrier(2, timeout=30)
        results, errors = [], []

        def triple(batch):
            barrier.wait()
            return batch * 3.0

        image = stack_imaging(triple, context)

        def work():
            try:
                results.append(cache.image_tile_batch(tile, digests, image,
                                                      context)[0])
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(results) == 2
        for out in results:
            np.testing.assert_array_equal(out[0], tile[0] * 3.0)
        stats = cache.stats
        assert stats.misses == 2 and len(cache) == 1
        assert stats.tiles == (stats.hits + stats.zero_hits
                               + stats.disk_loads + stats.misses)
        assert len(list(tmp_path.glob("tiles-*.npz"))) == 1
        assert not list(tmp_path.glob("*.tmp"))
        fresh = TileResultCache(cache_dir=str(tmp_path))
        out, _ = fresh.image_tile_batch(tile, digests, image, context)
        np.testing.assert_array_equal(out[0], tile[0] * 3.0)
        assert fresh.stats.disk_loads == 1 and fresh.stats.disk_errors == 0

    def test_racing_calls_tallies_sum_to_the_cache_counters(self):
        """Each call counts into its own tally, merged under the lock: with
        threads racing on one evicting cache, the shared counters are
        exactly the sum of the tallies handed back — no lost update."""
        import sys
        import threading

        tiles, digests = self.batch()
        cache = TileResultCache(max_bytes=tiles[0].nbytes)  # always evicting
        threads, rounds = 8, 40
        barrier = threading.Barrier(threads, timeout=30)
        tallies, errors = [], []

        def work():
            try:
                barrier.wait()
                for _ in range(rounds):
                    tallies.append(cache.image_tile_batch(
                        tiles, digests, tripling(), CONTEXT)[1])
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == [] and len(tallies) == threads * rounds
        total = TileCacheStats()
        for tally in tallies:
            total += tally
        assert total == cache.stats
        assert total.tiles == threads * rounds * len(digests)
        assert total.evictions > 0

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            TileResultCache(max_bytes=0)
        with pytest.raises(ValueError):
            TileResultCache().image_tile_batch(
                np.zeros((2, 4, 4)), ["only-one"], lambda batch: batch,
                CONTEXT)

    def test_resolve_tile_cache(self, monkeypatch):
        monkeypatch.setattr(tile_cache_module, "_default_cache", None)
        monkeypatch.delenv("REPRO_TILE_CACHE_DIR", raising=False)
        cache = TileResultCache()
        assert resolve_tile_cache(cache) is cache
        assert resolve_tile_cache(False) is None
        assert resolve_tile_cache(None) is None
        assert resolve_tile_cache(True) is tile_cache_module.default_tile_cache()
        with pytest.raises(TypeError):
            resolve_tile_cache("yes")
        # The directory names where the disk tier lives; it switches
        # nothing on.
        monkeypatch.setenv("REPRO_TILE_CACHE_DIR", "/tmp/somewhere")
        monkeypatch.setattr(tile_cache_module, "_default_cache", None)
        assert resolve_tile_cache(None) is None
        assert resolve_tile_cache(True).cache_dir == "/tmp/somewhere"

    def test_concurrent_first_callers_share_one_default_cache(self,
                                                              monkeypatch):
        """Campaigns whose first tile-cached calls race still see one
        process-wide cache: a constructor that stalls must not let a second
        caller build another one."""
        class SlowCache(TileResultCache):
            def __init__(self, *args, **kwargs):
                time.sleep(0.01)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tile_cache_module, "TileResultCache", SlowCache)
        monkeypatch.setattr(tile_cache_module, "_default_cache", None)
        monkeypatch.delenv("REPRO_TILE_CACHE_DIR", raising=False)
        barrier = threading.Barrier(8)
        caches = []

        def first_call():
            barrier.wait()
            caches.append(tile_cache_module.default_tile_cache())

        threads = [threading.Thread(target=first_call) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(caches) == 8
        assert len({id(cache) for cache in caches}) == 1
        assert caches[0] is tile_cache_module.default_tile_cache()


class TestCachedImagingBitForBit:
    def test_instance_array_images_one_unique_tile(self):
        """2x2 array of one 32 px cell: 4 tiles, 1 imaged, 3 from cache."""
        rng = np.random.default_rng(7)
        cell = (rng.random((32, 32)) > 0.7).astype(float)
        layout = np.tile(cell, (2, 2))
        plain, cached = engine_pair(1, "float64")
        cache = cached.tile_cache
        cache.clear()
        reference = reference_image_layout(plain, layout, tile_px=32,
                                           guard_px=0)
        result = cached.image_layout(layout, tile_px=32, guard_px=0)
        np.testing.assert_array_equal(result.aerial, reference.aerial)
        np.testing.assert_array_equal(result.resist, reference.resist)
        assert cache.stats.tiles == 4
        assert cache.stats.misses == 1
        assert cache.stats.hits == 3

    def test_a_cell_library_images_each_cell_once_then_nothing(self):
        """4 distinct cells over a 4 x 4 array: cold, one miss per cell and
        the other 12 tiles served; warm, all 16 served and none imaged."""
        rng = np.random.default_rng(8)
        library = [(rng.random((32, 32)) > 0.7).astype(float)
                   for _ in range(4)]
        layout = np.block([[library[(row + col) % 4] for col in range(4)]
                           for row in range(4)])
        plain, cached = engine_pair(1, "float64")
        cache = cached.tile_cache
        cache.clear()
        reference = reference_image_layout(plain, layout, tile_px=32,
                                           guard_px=0)
        for misses in (4, 0):
            before = dataclasses.replace(cache.stats)
            result = cached.image_layout(layout, tile_px=32, guard_px=0)
            np.testing.assert_array_equal(result.aerial, reference.aerial)
            assert cache.stats.misses - before.misses == misses
            assert cache.stats.tiles - before.tiles == 16

    def test_all_zero_layout_is_never_imaged(self):
        _, cached = engine_pair(1, "float64")
        cache = cached.tile_cache
        cache.clear()
        result = cached.image_layout(np.zeros((64, 96)), tile_px=32,
                                     guard_px=0)
        np.testing.assert_array_equal(result.aerial, 0.0)
        assert cache.stats.zero_hits == result.num_tiles
        assert cache.stats.misses == 0

    @pytest.mark.parametrize("workers,precision", [
        (1, "float64"), (1, "float32"), (2, "float64"), (2, "float32"),
    ])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), guard=st.sampled_from([0, 8]),
           height=st.integers(33, 70), width=st.integers(33, 96))
    def test_dedup_is_bit_for_bit(self, workers, precision, seed, guard,
                                  height, width):
        """Cached == the uncached reference, bit for bit, on one share and
        on shares, across precisions and one-batch / bounded-batch runs, on
        random repetitive layouts."""
        rng = np.random.default_rng(seed)
        layout = np.zeros((height, width))
        for _ in range(int(rng.integers(0, 5))):
            row, col = rng.integers(0, height), rng.integers(0, width)
            layout[row:row + int(rng.integers(1, 20)),
                   col:col + int(rng.integers(1, 20))] = 1.0
        plain, cached = engine_pair(workers, precision)
        with threads_seen() as seen:
            reference = reference_image_layout(plain, layout, tile_px=32,
                                               guard_px=guard)
        if workers > 1:
            assert_ran_on_shares(seen)
        dense = cached.image_layout(layout, tile_px=32, guard_px=guard)
        with stream_batches(cached, 3):
            streamed = cached.image_layout(layout, tile_px=32, guard_px=guard)
        np.testing.assert_array_equal(dense.aerial, reference.aerial)
        np.testing.assert_array_equal(dense.resist, reference.resist)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        np.testing.assert_array_equal(streamed.resist, reference.resist)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("bounded", [False, True])
    def test_sharded_dedup_is_bit_for_bit(self, tmp_path, precision,
                                          bounded, monkeypatch):
        """Dedup through ShardedExecutor — one batch or bounded batches —
        matches the uncached reference exactly."""
        from repro.engine import EngineSpec

        layout = np.zeros((80, 110))
        layout[10:70, 20:28] = 1.0
        layout[30:38, 40:100] = 1.0
        cache = TileResultCache()
        monkeypatch.setattr(tile_cache_module, "_default_cache", cache)
        spec = EngineSpec(config=CONFIG, source=SOURCE,
                          cache_dir=str(tmp_path),
                          compute=ComputeConfig(precision=precision,
                                                tile_cache=True))
        with ShardedExecutor() as executor:
            reference = reference_image_layout(executor.warm(spec), layout,
                                               guard_px=8)
            with stream_batches(executor.warm(spec), 3 if bounded else None):
                result = executor.image_layout(spec, layout, guard_px=8)
        np.testing.assert_array_equal(result.aerial, reference.aerial)
        np.testing.assert_array_equal(result.resist, reference.resist)
        assert cache.stats.tiles == reference.num_tiles
        assert cache.stats.misses < cache.stats.tiles  # zero tiles dedup
        assert result.tile_stats == cache.stats


def _disk_cached(tmp_path):
    """A numpy / float64 engine whose tile cache persists under ``tmp_path``
    (a fresh in-memory tier on each call)."""
    return ExecutionEngine.for_optics(
        CONFIG, source=SOURCE,
        compute=ComputeConfig(tile_cache=False),
        tile_cache=TileResultCache(cache_dir=str(tmp_path)))


def _repeating_layout():
    rng = np.random.default_rng(9)
    cell = (rng.random((16, 16)) > 0.6).astype(float)
    return np.tile(cell, (4, 5))


class TestDiskEntries:
    """What a layout run finds in the disk tier: ``core`` entries, and
    files of another shape."""

    @pytest.mark.parametrize("malformed", [
        {"tile": np.zeros((32, 32))},
        {"tile": np.zeros((5, 5))},
        {"tile": np.zeros((32, 32), np.float32)},
        {"core": np.zeros((32, 32))},
        {"core": np.zeros((16, 16), np.float32)},
        {"aerial": np.zeros((16, 16))},
    ], ids=["tile-32x32", "tile-5x5", "tile-float32", "core-32x32",
            "core-float32", "no-known-array"])
    def test_a_malformed_entry_is_a_counted_miss_and_is_overwritten(
            self, tmp_path, malformed):
        """A readable ``.npz`` of the wrong shape or dtype used to reach the
        stitch (a ``(5, 5)`` tile crashed it with a broadcast error); it is
        an unreadable entry: counted, re-imaged, overwritten.  So is a
        whole guard-banded ``tile`` of the right shape: only a ``core`` is
        an entry."""
        plain, _ = engine_pair(1, "float64")
        layout = _repeating_layout()
        reference = reference_image_layout(plain, layout, guard_px=8)
        cold = _disk_cached(tmp_path).image_layout(layout, guard_px=8)
        files = sorted(tmp_path.glob("tiles-*.npz"))
        assert len(files) == cold.tile_stats.misses > 1
        np.savez_compressed(files[0], **malformed)
        result = _disk_cached(tmp_path).image_layout(layout, guard_px=8)
        np.testing.assert_array_equal(result.aerial, reference.aerial)
        np.testing.assert_array_equal(result.resist, reference.resist)
        stats = result.tile_stats
        assert (stats.disk_errors, stats.misses) == (1, 1)
        assert stats.disk_loads == len(files) - 1
        with np.load(files[0]) as data:
            assert data.files == ["core"]
            assert data["core"].shape == (16, 16)
        again = _disk_cached(tmp_path).image_layout(layout, guard_px=8)
        assert (again.tile_stats.misses, again.tile_stats.disk_errors) == \
            (0, 0)


def _geometry_case():
    """(reader, float64 raster by the independent dense rasteriser)."""
    rng = np.random.default_rng(0)
    rects = []
    for _ in range(60):
        x, y = rng.uniform(0, 700, 2)
        w, h = rng.uniform(16, 90, 2)
        rects.append(Rect(float(x), float(y), float(w), float(h)))
    return (GeometryLayoutReader({"m1": rects}, 768.0 / 96, shape=(96, 96)),
            rasterize(rects, 96, 768.0 / 96))


def _hierarchy_case():
    import os

    from repro.layout import load_layout_file

    reader = load_layout_file(
        os.path.join(os.path.dirname(__file__), "data", "hier4.gds"),
        pixel_size_nm=8.0)
    rects = [rect for layer in reader.flatten_shapes().values()
             for rect in layer]
    return reader, rasterize(rects, reader.shape[0], 8.0)


READER_CASES = {"geometry": _geometry_case, "hierarchy": _hierarchy_case}


@pytest.fixture(scope="module", params=sorted(READER_CASES))
def reader_case(request):
    return READER_CASES[request.param]()


class TestCompactWindows:
    """Geometry readers rasterise uint8 coverage; nothing downstream moves."""

    @settings(max_examples=40, deadline=None)
    @given(row=st.integers(-140, 140), col=st.integers(-140, 140),
           height=st.integers(1, 48), width=st.integers(1, 48))
    def test_uint8_windows_equal_the_float64_windows(self, reader_case, row,
                                                     col, height, width):
        """In bounds, straddling the edge or fully outside: the window is
        value-for-value the float64 window cut from the dense raster."""
        reader, dense = reader_case
        window = reader.read_window(row, col, height, width)
        expected = ArrayLayoutReader(dense).read_window(row, col, height,
                                                        width)
        assert window.dtype == np.uint8 and expected.dtype == np.float64
        assert window.shape == expected.shape
        np.testing.assert_array_equal(window, expected)
        np.testing.assert_array_equal(window.astype(np.float64), expected)

    @pytest.mark.parametrize("cell,precision", [
        (NUMPY, "float64"),
        (NUMPY, "float32"),
        (SHARES, "float64"),
        (SHARES, "float32"),
    ])
    def test_images_to_the_identical_aerial(self, reader_case, tmp_path,
                                            cell, precision, monkeypatch):
        """{one share; budgets of 2 and 3 threads} x {cache on, off}: the
        reader images bit for bit the dense float64 raster's uncached
        reference."""
        from repro.engine import EngineSpec

        reader, dense = reader_case
        plain, _ = engine_pair(1, precision)
        reference = reference_image_layout(plain, dense, tile_px=32,
                                           guard_px=8)
        for workers in ((2, 3) if cell == SHARES else (1,)):
            for cache in (None, TileResultCache()):
                monkeypatch.setattr(tile_cache_module, "_default_cache",
                                    cache)
                spec = EngineSpec(config=CONFIG, source=SOURCE,
                                  compute=ComputeConfig(
                                      fft_workers=workers,
                                      precision=precision,
                                      tile_cache=cache is not None))
                with ShardedExecutor() as executor, threads_seen() as seen:
                    result = executor.image_layout(spec, reader, guard_px=8)
                    if workers > 1:
                        assert_ran_on_shares(seen)
                    np.testing.assert_array_equal(result.aerial,
                                                  reference.aerial)
                    np.testing.assert_array_equal(result.resist,
                                                  reference.resist)
                    assert result.aerial.dtype == reference.aerial.dtype
                    if cache is not None:
                        assert cache.stats.tiles == reference.num_tiles
                        cold_misses = cache.stats.misses
                        # A second, all-hit pass is still the same image.
                        warm = executor.image_layout(spec, reader,
                                                     guard_px=8)
                        np.testing.assert_array_equal(warm.aerial,
                                                      reference.aerial)
                        assert cache.stats.misses == cold_misses

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_greyscale_raster_through_the_cache_is_unchanged(self,
                                                             precision):
        """A dense float raster (not just 0/1) keys and images as before."""
        rng = np.random.default_rng(21)
        cell = rng.random((32, 32))
        layout = np.tile(cell, (2, 3))
        layout[40:56, 10:70] = rng.random((16, 60))  # break some repeats
        plain, cached = engine_pair(1, precision)
        cached.tile_cache.clear()
        reference = reference_image_layout(plain, layout, tile_px=32,
                                           guard_px=0)
        for batch_tiles in (None, 2):
            with stream_batches(cached, batch_tiles):
                result = cached.image_layout(layout, tile_px=32, guard_px=0)
            np.testing.assert_array_equal(result.aerial, reference.aerial)
            np.testing.assert_array_equal(result.resist, reference.resist)
        stats = cached.tile_cache.stats
        assert stats.tiles == 12 and 0 < stats.misses < 6
        assert stats.zero_hits == 0


CACHED = ComputeConfig(tile_cache=True)


class TestSweepIntegration:
    def test_store_accumulates_cache_counters_and_report_renders(
            self, tmp_path, monkeypatch):
        from repro.sweep import (FocusExposureGrid, ProcessWindowSweep,
                                 load_campaign_report,
                                 render_campaign_report)

        layout = np.zeros((64, 64))
        layout[8:56, 28:36] = 1.0
        grid = FocusExposureGrid((0.0, 80.0), (1.0,))
        store_dir = str(tmp_path / "store")
        cache = TileResultCache()
        monkeypatch.setattr(tile_cache_module, "_default_cache", cache)
        with ShardedExecutor(cache_dir=str(tmp_path / "banks")) as executor:
            sweep = ProcessWindowSweep(CONFIG, source=SOURCE,
                                       executor=executor, compute=CACHED)
            sweep.run(layout, grid=grid, tolerance=0.3, guard_px=8,
                      store=store_dir)
        stats = dataclasses.asdict(cache.stats)
        assert stats["tiles"] > 0
        from repro.sweep import CampaignStore

        stored = CampaignStore(store_dir).read_manifest()["tile_cache"]
        assert stored == {key: value for key, value in stats.items()}
        report = load_campaign_report(store_dir)
        rendered = render_campaign_report(report)
        assert "tile cache" in rendered
        served = cache.stats.tiles - cache.stats.misses
        assert f"{served}/{cache.stats.tiles} tiles" in rendered

    def test_cache_persists_across_foci(self, tmp_path, monkeypatch):
        """One cache serves every focus; banks differ per focus so tiles are
        *namespaced* per kernel fingerprint, never served across foci."""
        from repro.sweep import FocusExposureGrid, ProcessWindowSweep

        rng = np.random.default_rng(3)
        cell = (rng.random((32, 32)) > 0.7).astype(float)
        layout = np.tile(cell, (2, 2))
        grid = FocusExposureGrid((0.0, 80.0), (0.9, 1.0, 1.1))
        cache = TileResultCache()
        monkeypatch.setattr(tile_cache_module, "_default_cache", cache)
        with ShardedExecutor(cache_dir=str(tmp_path / "banks")) as executor:
            ProcessWindowSweep(CONFIG, source=SOURCE, executor=executor,
                               compute=CACHED).run(
                layout, target_cd_nm=100.0, grid=grid, tolerance=0.3,
                guard_px=0)
        # One aerial per focus (doses rescale the threshold, not the
        # aerial), 4 tiles each, 1 unique cell per focus.
        assert cache.stats.tiles == 8
        assert cache.stats.misses == 2
        assert cache.stats.hits == 6

    def test_concurrent_campaigns_each_record_their_own_counters(
            self, tmp_path, monkeypatch):
        """Two tile-cached campaigns on two threads share the process-wide
        cache (as on one service); each store's ``tile_cache`` block is
        exactly a solo run's, never the other campaign's tiles too."""
        import threading

        from repro.sweep import (CampaignStore, FocusExposureGrid,
                                 ProcessWindowSweep)

        layout = np.zeros((128, 128))
        layout[8:120, 28:36] = 1.0
        layout[40:48, 8:120] = 1.0
        grid = FocusExposureGrid((0.0, 80.0), (1.0,))

        def campaign(store_dir, progress=None):
            ProcessWindowSweep(CONFIG, source=SOURCE, compute=CACHED).run(
                layout, grid=grid, tolerance=0.3, guard_px=8,
                target_cd_nm=64.0, store=store_dir, progress=progress)
            return CampaignStore(store_dir).read_manifest()["tile_cache"]

        monkeypatch.setattr(tile_cache_module, "_default_cache",
                            TileResultCache())
        solo = campaign(str(tmp_path / "solo"))
        assert solo["tiles"] == 2 * 64  # 2 foci x 8 x 8 tiles
        # Lock-step after every focus: each campaign has begun — and imaged
        # a focus — before the other one finishes.  Which of them images a
        # shared tile first varies, so only the tile count is pinned.
        barrier = threading.Barrier(2, timeout=60)
        recorded, errors = {}, []

        def run(name):
            try:
                recorded[name] = campaign(str(tmp_path / name),
                                          lambda *_: barrier.wait())
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == [] and set(recorded) == {"a", "b"}
        for stats in recorded.values():
            assert stats["tiles"] == solo["tiles"]
            assert stats["tiles"] == (stats["hits"] + stats["zero_hits"]
                                      + stats["disk_loads"] + stats["misses"])


class TestCLI:
    def test_image_layout_warm_run_serves_everything(self, tmp_path,
                                                     monkeypatch, capsys):
        from repro.cli import main
        from repro.engine import configure_default_tile_cache

        monkeypatch.setattr(tile_cache_module, "_default_cache", None)
        arguments = ["image-layout", "--width", "64", "--height", "64",
                     "--tile-size", "32", "--pixel-size-nm", "8",
                     "--guard", "0", "--tile-cache",
                     "--output", str(tmp_path / "aerial.npz")]
        configure_default_tile_cache(str(tmp_path / "tile-cache"))
        assert main(arguments) == 0
        cold = capsys.readouterr().out
        assert "tile cache:" in cold
        # Fresh in-memory tier, same disk tier: the warm run images nothing.
        configure_default_tile_cache(str(tmp_path / "tile-cache"))
        assert main(arguments) == 0
        warm = capsys.readouterr().out
        assert "100.0% hit rate, 0 imaged" in warm

    def test_no_tile_cache_flag_disables_env(self, tmp_path, monkeypatch,
                                             capsys):
        from repro.cli import main

        monkeypatch.setattr(tile_cache_module, "_default_cache", None)
        monkeypatch.setenv("REPRO_TILE_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["image-layout", "--width", "32", "--height", "32",
                     "--tile-size", "32", "--pixel-size-nm", "8",
                     "--guard", "0", "--no-tile-cache",
                     "--output", str(tmp_path / "aerial.npz")]) == 0
        assert "tile cache:" not in capsys.readouterr().out
