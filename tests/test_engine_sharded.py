"""Tests for multiprocess sharding (repro.engine.sharded) and its cache-warm protocol.

Pinned guarantees:

* sharded output is bit-for-bit the serial output (deterministic stitch
  order), with fork and spawn worker processes alike,
* the serial fallback engages for one worker, tiny batches and broken pools,
* ``EngineSpec`` round-trips focus changes and keys the kernel cache
  correctly, and
* the disk-backed kernel cache hands a pre-computed bank to a *fresh
  process* with zero TCC computations and zero eigendecompositions — the
  mechanism every sharded worker relies on.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from reference import reference_image_layout
from repro.engine import (
    EngineSpec,
    KernelBankCache,
    ShardedExecutor,
    available_workers,
)
from repro.optics import OpticsConfig
from repro.optics.pupil import Pupil
from repro.optics.source import AnnularSource, CircularSource

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
SOURCE = CircularSource(sigma=0.6)


@pytest.fixture(scope="module")
def spec():
    return EngineSpec(config=CONFIG, source=SOURCE)


@pytest.fixture(scope="module")
def masks():
    return (np.random.default_rng(21).random((6, 32, 32)) > 0.7).astype(float)


class TestEngineSpec:
    def test_resolved_defaults_match_for_optics(self):
        bare = EngineSpec(config=CONFIG)
        source, pupil = bare.resolved_optics()
        assert isinstance(source, AnnularSource)
        assert pupil.defocus_nm == CONFIG.defocus_nm

    def test_with_focus_changes_fingerprint_and_keeps_aberrations(self, spec):
        comatic = EngineSpec(config=CONFIG, source=SOURCE,
                             pupil=Pupil(zernike_coefficients={8: 0.05}))
        refocused = comatic.with_focus(75.0)
        assert refocused.config.defocus_nm == 75.0
        assert refocused.pupil.defocus_nm == 75.0
        assert refocused.pupil.zernike_coefficients == {8: 0.05}
        assert refocused.fingerprint() != comatic.fingerprint()
        assert comatic.with_focus(75.0).fingerprint() == refocused.fingerprint()

    def test_build_uses_injected_cache(self, spec, tmp_path):
        cache = KernelBankCache(cache_dir=str(tmp_path))
        engine = spec.build(cache=cache)
        assert cache.stats.decompositions == 1
        assert engine.order > 0
        assert len(os.listdir(tmp_path)) == 1  # bank persisted for workers

    def test_spec_is_picklable(self, spec):
        import pickle

        clone = pickle.loads(pickle.dumps(spec.with_focus(30.0)))
        assert clone.fingerprint() == spec.with_focus(30.0).fingerprint()


class TestShardedExecutor:
    @pytest.mark.parametrize("backend_name,precision", [
        ("numpy", "float64"),
        ("numpy", "float32"),
        ("scipy", "float64"),
        ("scipy", "float32"),
    ])
    def test_sharded_equals_serial_under_every_compute_policy(
            self, masks, tmp_path, backend_name, precision):
        """The EngineSpec round-trip carries backend + precision: sharded
        output is bit-for-bit the serial output under every combination."""
        if backend_name == "scipy":
            pytest.importorskip("scipy.fft")
        policy_spec = EngineSpec(config=CONFIG, source=SOURCE,
                                 fft_backend=backend_name, precision=precision)
        serial = ShardedExecutor(num_workers=1, cache_dir=str(tmp_path))
        reference = serial.aerial_batch(policy_spec, masks)
        with ShardedExecutor(num_workers=2, cache_dir=str(tmp_path)) as sharded:
            result = sharded.aerial_batch(policy_spec, masks)
            assert sharded.last_used_pool
        np.testing.assert_array_equal(result, reference)
        expected_dtype = np.float32 if precision == "float32" else np.float64
        assert result.dtype == expected_dtype

    def test_worker_spec_splits_fft_thread_budget(self, spec):
        executor = ShardedExecutor(num_workers=4)
        shipped = executor._worker_spec(spec, active_workers=4)
        assert shipped.fft_workers == max(1, available_workers() // 4)
        # Small batches activate fewer workers than the pool size: the
        # budget divides over the shards that actually run.
        assert executor._worker_spec(spec, active_workers=2).fft_workers == \
            max(1, available_workers() // 2)
        pinned = EngineSpec(config=CONFIG, source=SOURCE, fft_workers=2)
        assert executor._worker_spec(pinned, 4).fft_workers == 2  # explicit wins

    def test_sharded_equals_serial_bit_for_bit(self, spec, masks, tmp_path):
        serial = ShardedExecutor(num_workers=1, cache_dir=str(tmp_path))
        reference = serial.aerial_batch(spec, masks)
        assert not serial.last_used_pool
        with ShardedExecutor(num_workers=2, cache_dir=str(tmp_path)) as sharded:
            result = sharded.aerial_batch(spec, masks)
            assert sharded.last_used_pool
            assert sharded.last_num_shards == 2
        np.testing.assert_array_equal(result, reference)

    def test_spawn_workers_match_serial(self, spec, masks, tmp_path):
        """Spawn context: workers inherit nothing and must use the disk cache."""
        serial = ShardedExecutor(num_workers=1, cache_dir=str(tmp_path))
        reference = serial.aerial_batch(spec, masks)
        context = multiprocessing.get_context("spawn")
        with ShardedExecutor(num_workers=2, cache_dir=str(tmp_path),
                             mp_context=context) as sharded:
            result = sharded.aerial_batch(spec, masks)
            assert sharded.last_used_pool
        np.testing.assert_array_equal(result, reference)

    def test_zero_workers_falls_back_to_serial(self, spec, masks):
        executor = ShardedExecutor(num_workers=0)
        result = executor.aerial_batch(spec, masks)
        assert not executor.last_used_pool
        reference = ShardedExecutor(num_workers=1).aerial_batch(spec, masks)
        np.testing.assert_array_equal(result, reference)

    def test_engine_memo_is_bounded(self, tmp_path):
        from repro.engine.sharded import ENGINE_MEMO_LIMIT

        executor = ShardedExecutor(num_workers=1, cache_dir=str(tmp_path))
        base = EngineSpec(config=CONFIG, source=SOURCE)
        for index in range(ENGINE_MEMO_LIMIT + 3):
            executor.warm(base.with_focus(10.0 * index))
        assert len(executor._local_engines) == ENGINE_MEMO_LIMIT
        # The backing cache was trimmed after each build: banks live on disk,
        # not in memory, so long campaigns stay bounded.
        assert len(executor._local_cache) == 0
        assert executor._local_cache.stats.decompositions == ENGINE_MEMO_LIMIT + 3

    def test_single_tile_batch_stays_serial(self, spec, masks):
        executor = ShardedExecutor(num_workers=4)
        result = executor.aerial_batch(spec, masks[:1])
        assert not executor.last_used_pool
        assert result.shape == (1, 32, 32)

    def test_empty_batch(self, spec):
        executor = ShardedExecutor(num_workers=2)
        assert executor.aerial_batch(spec, np.zeros((0, 32, 32))).shape == (0, 32, 32)

    def test_shard_slices_partition_deterministically(self):
        executor = ShardedExecutor(num_workers=3)
        slices = executor._shard_slices(8)
        assert [(s.start, s.stop) for s in slices] == [(0, 3), (3, 6), (6, 8)]

    def test_image_layout_matches_in_process_engine(self, spec, tmp_path):
        layout = (np.random.default_rng(4).random((70, 90)) > 0.75).astype(float)
        with ShardedExecutor(num_workers=2, cache_dir=str(tmp_path)) as executor:
            sharded = executor.image_layout(spec, layout, guard_px=8)
        reference = reference_image_layout(
            spec.build(cache=KernelBankCache()), layout, guard_px=8)
        np.testing.assert_array_equal(sharded.aerial, reference.aerial)
        np.testing.assert_array_equal(sharded.resist, reference.resist)
        assert sharded.num_tiles == reference.num_tiles

    def test_resist_batch_binary(self, spec, masks):
        executor = ShardedExecutor(num_workers=1)
        resist = executor.resist_batch(spec, masks)
        assert set(np.unique(resist)).issubset({0, 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedExecutor(num_workers=-1)
        with pytest.raises(ValueError):
            ShardedExecutor(min_shard_tiles=0)
        with pytest.raises(ValueError):
            ShardedExecutor(num_workers=1).aerial_batch(
                EngineSpec(config=CONFIG), np.zeros((4, 4)))

    def test_available_workers_positive(self):
        assert available_workers() >= 1


class _FlakyPool:
    """A stand-in pool: serves the first ``healthy`` submits in-process,
    then raises ``BrokenProcessPool`` — a deterministic mid-campaign death."""

    def __init__(self, healthy: int):
        self.healthy = healthy
        self.submits = 0

    def submit(self, fn, *args, **kwargs):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        self.submits += 1
        future = Future()
        if self.submits <= self.healthy:
            future.set_result(fn(*args, **kwargs))
        else:
            future.set_exception(BrokenProcessPool("pool died mid-campaign"))
        return future

    def shutdown(self, *args, **kwargs):
        pass


class TestCampaignScheduling:
    """(focus, shard) work units over one shared pool — and its fallbacks."""

    def _specs(self, spec):
        return [spec.with_focus(focus) for focus in (0.0, 60.0, 120.0)]

    def _serial_reference(self, specs, masks, tmp_path):
        executor = ShardedExecutor(num_workers=1, cache_dir=str(tmp_path))
        return [executor.warm(spec).aerial_batch(masks) for spec in specs]

    def test_campaign_matches_serial_bit_for_bit(self, spec, masks, tmp_path):
        specs = self._specs(spec)
        reference = self._serial_reference(specs, masks, tmp_path)
        with ShardedExecutor(num_workers=2, cache_dir=str(tmp_path)) as ex:
            results = dict(ex.run_conditions(list(enumerate(specs)), masks))
            assert ex.last_used_pool
        assert set(results) == {0, 1, 2}
        for index, expected in enumerate(reference):
            np.testing.assert_array_equal(results[index], expected)

    def test_campaign_serial_executor_yields_in_order(self, spec, masks,
                                                      tmp_path):
        specs = self._specs(spec)
        reference = self._serial_reference(specs, masks, tmp_path)
        executor = ShardedExecutor(num_workers=1, cache_dir=str(tmp_path))
        indices = []
        for index, aerial in executor.run_conditions(list(enumerate(specs)),
                                                     masks):
            indices.append(index)
            np.testing.assert_array_equal(aerial, reference[index])
        assert indices == [0, 1, 2]
        assert not executor.last_used_pool

    def test_campaign_empty_specs(self, spec, masks):
        executor = ShardedExecutor(num_workers=2)
        assert list(executor.run_conditions([], masks)) == []

    def test_broken_pool_mid_campaign_degrades_to_serial(self, spec, masks,
                                                         tmp_path):
        """The pool dies after the first focus: remaining foci must be
        computed serially with identical results — not raise."""
        specs = self._specs(spec)
        reference = self._serial_reference(specs, masks, tmp_path)
        executor = ShardedExecutor(num_workers=2, cache_dir=str(tmp_path))
        shards = len(executor._shard_slices(masks.shape[0]))
        executor._pool = _FlakyPool(healthy=shards)  # focus 0 succeeds
        results = dict(executor.run_conditions(list(enumerate(specs)), masks))
        assert executor._pool is None  # close() ran on the broken pool
        assert set(results) == {0, 1, 2}
        for index, expected in enumerate(reference):
            np.testing.assert_array_equal(results[index], expected)
        executor.close()  # idempotent after the fallback

    def test_pool_broken_from_the_start_degrades_to_serial(self, spec, masks,
                                                           tmp_path):
        specs = self._specs(spec)
        reference = self._serial_reference(specs, masks, tmp_path)
        executor = ShardedExecutor(num_workers=2, cache_dir=str(tmp_path))
        executor._pool = _FlakyPool(healthy=0)
        results = dict(executor.run_conditions(list(enumerate(specs)), masks))
        for index, expected in enumerate(reference):
            np.testing.assert_array_equal(results[index], expected)
        assert not executor.last_used_pool


class TestStreamingThroughExecutor:
    def test_streaming_layout_matches_serial_engine(self, spec, tmp_path):
        layout = (np.random.default_rng(7).random((70, 90)) > 0.75).astype(float)
        reference = reference_image_layout(
            spec.build(cache=KernelBankCache()), layout, guard_px=8)
        with ShardedExecutor(num_workers=2, cache_dir=str(tmp_path)) as ex:
            streamed = ex.image_layout(spec, layout, guard_px=8,
                                       batch_tiles=3)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        np.testing.assert_array_equal(streamed.resist, reference.resist)

    def test_streaming_out_dir_through_executor(self, spec, tmp_path):
        layout = (np.random.default_rng(9).random((50, 66)) > 0.75).astype(float)
        out_dir = str(tmp_path / "streamed")
        with ShardedExecutor(num_workers=1, cache_dir=str(tmp_path)) as ex:
            result = ex.image_layout(spec, layout, guard_px=6,
                                     out_dir=out_dir)
        reference = reference_image_layout(
            spec.build(cache=KernelBankCache()), layout, guard_px=6)
        assert isinstance(result.aerial, np.memmap)
        np.testing.assert_array_equal(np.asarray(result.aerial),
                                      reference.aerial)

    def test_streaming_survives_broken_pool_every_batch(self, spec, tmp_path,
                                                        monkeypatch):
        """Serial fallback + close() exercised *under the streaming path*:
        every batch's pool attempt fails, every batch must fall back."""
        layout = (np.random.default_rng(3).random((70, 90)) > 0.75).astype(float)
        reference = reference_image_layout(
            spec.build(cache=KernelBankCache()), layout, guard_px=8)
        executor = ShardedExecutor(num_workers=2, cache_dir=str(tmp_path))

        def poisoned_pool():
            raise OSError("subprocesses forbidden")

        monkeypatch.setattr(executor, "_pool_handle", poisoned_pool)
        streamed = executor.image_layout(spec, layout, guard_px=8,
                                         batch_tiles=3)
        assert not executor.last_used_pool
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        np.testing.assert_array_equal(streamed.resist, reference.resist)
        executor.close()

    def test_streaming_pool_dies_mid_stream(self, spec, tmp_path):
        """First streamed batch shards through the pool, then the pool dies:
        the remaining batches degrade to serial, output bit-identical."""
        layout = (np.random.default_rng(5).random((70, 90)) > 0.75).astype(float)
        reference = reference_image_layout(
            spec.build(cache=KernelBankCache()), layout, guard_px=8)
        executor = ShardedExecutor(num_workers=2, cache_dir=str(tmp_path))
        executor._pool = _FlakyPool(healthy=2)  # one sharded batch succeeds
        streamed = executor.image_layout(spec, layout, guard_px=8,
                                         batch_tiles=4)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        executor.close()


class TestCacheWarmAcrossProcesses:
    """The sharded executor's enabling mechanism: banks persist across processes."""

    def test_fresh_process_loads_bank_without_recomputation(self, tmp_path):
        cache = KernelBankCache(cache_dir=str(tmp_path))
        bank = cache.get_kernels(CONFIG, AnnularSource(0.5, 0.8), Pupil())
        assert cache.stats.tcc_computes == 1
        assert cache.stats.decompositions == 1

        code = textwrap.dedent("""
            import json, sys
            from repro.engine import KernelBankCache
            from repro.optics import OpticsConfig
            from repro.optics.pupil import Pupil
            from repro.optics.source import AnnularSource

            cache = KernelBankCache(cache_dir=sys.argv[1])
            config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0,
                                  max_socs_order=8)
            bank = cache.get_kernels(config, AnnularSource(0.5, 0.8), Pupil())
            print(json.dumps({
                "tcc_computes": cache.stats.tcc_computes,
                "decompositions": cache.stats.decompositions,
                "disk_loads": cache.stats.disk_loads,
                "order": int(bank.kernels.shape[0]),
            }))
        """)
        src_dir = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            capture_output=True, text=True, env=env, check=True)
        stats = json.loads(completed.stdout.strip().splitlines()[-1])
        assert stats["tcc_computes"] == 0, "fresh process recomputed the TCC"
        assert stats["decompositions"] == 0, "fresh process re-eigendecomposed"
        assert stats["disk_loads"] == 1
        assert stats["order"] == bank.kernels.shape[0]
