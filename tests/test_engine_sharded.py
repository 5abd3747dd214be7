"""Tests for ``EngineSpec`` and ``ShardedExecutor`` (repro.engine.sharded);
the fft_workers x backend x precision x tile-cache x layout-source matrix
lives in ``tests/test_worker_threads.py``.

Pinned guarantees:

* an executor call on several threads is bit-for-bit the one-thread call,
* ``num_workers`` is accepted and ignored, and a one-tile batch starts no
  thread,
* ``EngineSpec`` round-trips focus changes and keys the kernel cache
  correctly,
* the executor is a plain engine memo: each engine applies its own spec's
  tile-cache switch,
* the engine memo and the device-bank memo are bounded and survive
  concurrent callers, and
* the disk-backed kernel cache hands a pre-computed bank to a *fresh
  process* with zero TCC computations and zero eigendecompositions — what
  ``cache_dir`` buys a resumed campaign or a restarted service.
"""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from reference import reference_image_layout, stream_batches
from repro.backend import ComputeConfig
from repro.engine import (
    EngineSpec,
    KernelBankCache,
    ShardedExecutor,
    available_workers,
    batched,
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
        assert len(os.listdir(tmp_path)) == 1  # bank persisted for later runs

    def test_spec_is_picklable(self, spec):
        import pickle

        clone = pickle.loads(pickle.dumps(spec.with_focus(30.0)))
        assert clone.fingerprint() == spec.with_focus(30.0).fingerprint()


def _threads(spec, workers):
    return dataclasses.replace(spec, compute=dataclasses.replace(
        spec.compute, fft_workers=workers))


class TestShardedExecutor:
    @pytest.mark.parametrize("backend_name,precision", [
        ("numpy", "float64"),
        ("numpy", "float32"),
        ("scipy", "float64"),
        ("scipy", "float32"),
    ])
    def test_sharded_equals_serial_under_every_compute_policy(
            self, masks, tmp_path, backend_name, precision):
        """The EngineSpec round-trip carries backend + precision: a
        two-thread call is bit-for-bit the one-thread call under every
        combination."""
        if backend_name == "scipy":
            pytest.importorskip("scipy.fft")
        policy_spec = EngineSpec(
            config=CONFIG, source=SOURCE,
            compute=ComputeConfig(fft_backend=backend_name,
                                  precision=precision))
        with ShardedExecutor(cache_dir=str(tmp_path)) as executor:
            reference = executor.aerial_batch(_threads(policy_spec, 1), masks)
            result = executor.aerial_batch(_threads(policy_spec, 2), masks)
        np.testing.assert_array_equal(result, reference)
        expected_dtype = np.float32 if precision == "float32" else np.float64
        assert result.dtype == expected_dtype

    def test_sharded_equals_serial_bit_for_bit(self, spec, masks, tmp_path):
        with ShardedExecutor(cache_dir=str(tmp_path)) as executor:
            reference = executor.aerial_batch(_threads(spec, 1), masks)
            for workers in (2, 3):
                np.testing.assert_array_equal(
                    executor.aerial_batch(_threads(spec, workers), masks),
                    reference)

    def test_zero_workers_falls_back_to_serial(self, spec, masks):
        """``num_workers`` is accepted and ignored, whatever its value."""
        reference = ShardedExecutor().aerial_batch(spec, masks)
        for num_workers in (0, 1, 2, -1):
            executor = ShardedExecutor(num_workers=num_workers)
            np.testing.assert_array_equal(
                executor.aerial_batch(spec, masks), reference)

    def test_engine_memo_is_bounded(self, tmp_path, monkeypatch):
        from repro.engine import cache
        from repro.engine.sharded import ENGINE_MEMO_LIMIT

        calls = []
        plain = cache.socs_kernels
        monkeypatch.setattr(
            cache, "socs_kernels",
            lambda *args, **kw: calls.append(1) or plain(*args, **kw))
        executor = ShardedExecutor()
        base = EngineSpec(config=CONFIG, source=SOURCE,
                          cache_dir=str(tmp_path))
        for index in range(ENGINE_MEMO_LIMIT + 3):
            executor.warm(base.with_focus(10.0 * index))
        assert len(executor._engines) == ENGINE_MEMO_LIMIT
        # Each build went through a throwaway cache on the spec's directory:
        # banks live on disk and in the memoised engines only, so long
        # campaigns stay bounded.
        assert len(calls) == ENGINE_MEMO_LIMIT + 3
        assert len(os.listdir(tmp_path)) == ENGINE_MEMO_LIMIT + 3
        executor.close()  # drops the memo; banks reload from disk on demand
        assert len(executor._engines) == 0
        executor.warm(base)
        assert len(calls) == ENGINE_MEMO_LIMIT + 3

    def test_each_engine_applies_its_own_tile_cache_switch(self):
        """Two specs differing only in the switch share a fingerprint yet
        warm two engines, each holding its own spec's tile cache."""
        from repro.engine import default_tile_cache

        specs = {switch: EngineSpec(config=CONFIG, source=SOURCE,
                                    compute=ComputeConfig(tile_cache=switch))
                 for switch in (True, False)}
        assert specs[True].fingerprint() == specs[False].fingerprint()
        with ShardedExecutor() as executor:
            engines = {switch: executor.warm(spec)
                       for switch, spec in specs.items()}
            assert len(executor._engines) == 2
        assert engines[True].tile_cache is default_tile_cache()
        assert engines[False].tile_cache is None

    def test_single_tile_batch_stays_serial(self, masks, monkeypatch):
        pytest.importorskip("scipy.fft")

        def refuse():
            raise AssertionError("a one-tile batch asked for helper threads")

        monkeypatch.setattr(batched, "_helper_threads", refuse)
        executor = ShardedExecutor()
        threaded = EngineSpec(config=CONFIG, source=SOURCE, compute=ComputeConfig(
            fft_backend="scipy", fft_workers=4))
        result = executor.aerial_batch(threaded, masks[:1])
        assert result.shape == (1, 32, 32)

    def test_empty_batch(self, spec):
        executor = ShardedExecutor()
        assert executor.aerial_batch(spec, np.zeros((0, 32, 32))).shape == (0, 32, 32)

    def test_image_layout_matches_in_process_engine(self, spec, tmp_path):
        layout = (np.random.default_rng(4).random((70, 90)) > 0.75).astype(float)
        with ShardedExecutor(cache_dir=str(tmp_path)) as executor:
            imaged = executor.image_layout(_threads(spec, 2), layout,
                                           guard_px=8)
        reference = reference_image_layout(
            spec.build(cache=KernelBankCache()), layout, guard_px=8)
        np.testing.assert_array_equal(imaged.aerial, reference.aerial)
        np.testing.assert_array_equal(imaged.resist, reference.resist)
        assert imaged.num_tiles == reference.num_tiles

    def test_resist_batch_binary(self, spec, masks):
        executor = ShardedExecutor()
        resist = executor.warm(spec).resist_batch(masks)
        assert set(np.unique(resist)).issubset({0, 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedExecutor().aerial_batch(
                EngineSpec(config=CONFIG), np.zeros((4, 4)))

    def test_available_workers_positive(self):
        assert available_workers() >= 1


class TestMemosUnderThreads:
    """The engine memo and the device-bank memo are LRUs that worker and
    campaign threads share: lookup, build and eviction are one locked step."""

    @staticmethod
    def _hammer(call, keys, threads=4, rounds=150):
        errors = []
        barrier = threading.Barrier(threads)

        def worker(offset):
            try:
                barrier.wait(timeout=30)
                for step in range(rounds):
                    call(keys[(offset + step) % len(keys)])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker, args=(3 * index,))
                       for index in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in workers)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    def test_warm_builds_once_per_residency_and_never_raises(self, spec,
                                                             monkeypatch):
        from repro.engine.sharded import ENGINE_MEMO_LIMIT

        builds = []

        def counting_build(self, cache=None):
            builds.append(self.fingerprint())
            return object()  # the memo never looks inside

        monkeypatch.setattr(EngineSpec, "build", counting_build)
        specs = [spec.with_focus(10.0 * index) for index in range(12)]
        # Everything fits: one residency each, so exactly one build each.
        executor = ShardedExecutor()
        self._hammer(executor.warm, specs[:ENGINE_MEMO_LIMIT])
        assert sorted(builds) == sorted(
            one.fingerprint() for one in specs[:ENGINE_MEMO_LIMIT])
        # More fingerprints than the memo holds: evictions race lookups.
        self._hammer(executor.warm, specs)
        assert len(executor._engines) == ENGINE_MEMO_LIMIT


class TestStreamingThroughExecutor:
    def test_streaming_layout_matches_serial_engine(self, spec, tmp_path):
        layout = (np.random.default_rng(7).random((70, 90)) > 0.75).astype(float)
        reference = reference_image_layout(
            spec.build(cache=KernelBankCache()), layout, guard_px=8)
        with ShardedExecutor(cache_dir=str(tmp_path)) as ex, \
                stream_batches(ex.warm(_threads(spec, 2)), 3):
            streamed = ex.image_layout(_threads(spec, 2), layout, guard_px=8)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        np.testing.assert_array_equal(streamed.resist, reference.resist)

    def test_streaming_out_dir_through_executor(self, spec, tmp_path):
        layout = (np.random.default_rng(9).random((50, 66)) > 0.75).astype(float)
        out_dir = str(tmp_path / "streamed")
        with ShardedExecutor(cache_dir=str(tmp_path)) as ex:
            result = ex.image_layout(spec, layout, guard_px=6,
                                     out_dir=out_dir)
        reference = reference_image_layout(
            spec.build(cache=KernelBankCache()), layout, guard_px=6)
        assert isinstance(result.aerial, np.memmap)
        np.testing.assert_array_equal(np.asarray(result.aerial),
                                      reference.aerial)


class TestCacheWarmAcrossProcesses:
    """What ``cache_dir`` is for: banks persist across processes."""

    def test_fresh_process_loads_bank_without_recomputation(self, tmp_path):
        cache = KernelBankCache(cache_dir=str(tmp_path))
        bank = cache.get_kernels(CONFIG, AnnularSource(0.5, 0.8), Pupil())
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
        assert stats["decompositions"] == 0, "fresh process re-eigendecomposed"
        assert stats["disk_loads"] == 1
        assert stats["order"] == bank.kernels.shape[0]
