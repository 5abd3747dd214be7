"""Tests for the device side of the backend protocol (repro.backend.array_module).

Pinned guarantees:

* **residency is provable**: on the ``fakegpu`` backend the batched core pays
  exactly one upload per mask block and one download per aerial block — for
  the dense, streaming, executor and concurrent-caller paths alike — and the
  kernel bank is uploaded once per (fingerprint, device), never per block
  or per batch,
* **streamed downloads stage through one reusable host buffer** (the pinned
  -buffer hook): ``host_buffer_allocations == 1`` for a whole streamed
  layout, with or without a tile cache, through the engine and through
  ``repro.api`` alike,
* **fakegpu == numpy bit for bit** across precisions and band limiting
  (hypothesis-pinned), so the residency bookkeeping can never drift the
  numerics,
* **host-math mixing raises**: numpy ufuncs on a :class:`FakeDeviceArray`
  and device<->host binary ops fail loudly instead of silently detouring
  through the host,
* **one protocol**: every registered backend is an ``FFTBackend``; a host
  backend's array namespace is numpy verbatim with zero counted transfers;
  ``mask_spectrum`` follows the mask (host in -> host out through one
  counted round trip, device in -> device out with none); and a subclass
  that defines only ``name`` + the four transforms — the shape of the
  benchmark's FFT probe — is a complete backend for an engine and for an
  executor, changing no output bit,
* ``--precision auto`` resolves deterministically everywhere an engine is
  built (constructor, ``for_optics``, ``EngineSpec``) and never leaks the
  string ``"auto"`` into a worker-bound spec.
"""

import dataclasses
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.api as api
from reference import RecordingBackend, reference_image_layout, stream_batches
from repro.backend import (
    FLOAT32,
    FLOAT64,
    ComputeConfig,
    DeviceMixingError,
    FFTBackend,
    NumpyFFTBackend,
    autotune_precision,
    available_backends,
    get_backend,
    is_auto_precision,
    resolve_precision,
)
from repro.engine import (
    EngineSpec,
    ExecutionEngine,
    ShardedExecutor,
    TileResultCache,
)
from repro.engine import batched
from repro.engine import tile_cache as tile_cache_module
from repro.engine.batched import batched_aerial_from_kernels
from repro.engine.execution import (
    DEVICE_BANK_LIMIT,
    _DEVICE_BANKS,
    device_kernel_bank,
)
from repro.engine.streaming import open_layout_dir
from repro.layout import load_layout_source
from repro.optics import OpticsConfig
from repro.optics.aerial import mask_spectrum

HIER4 = os.path.join(os.path.dirname(__file__), "data", "hier4.gds")

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)

RNG = np.random.default_rng(7)
KERNELS = (RNG.standard_normal((3, 9, 9))
           + 1j * RNG.standard_normal((3, 9, 9)))


@pytest.fixture()
def fakegpu():
    """The process-cached fakegpu backend with counters and bank memo reset."""
    module = get_backend("fakegpu")
    module.transfer_stats.reset()
    _DEVICE_BANKS.clear()
    yield module
    module.transfer_stats.reset()
    _DEVICE_BANKS.clear()


NO_CACHE = ComputeConfig(tile_cache=False)


def make_engines(**kwargs):
    numpy_engine = ExecutionEngine(
        KERNELS, tile_size_px=32,
        compute=dataclasses.replace(NO_CACHE, fft_backend="numpy"),
        **kwargs)
    fake_engine = ExecutionEngine(KERNELS, tile_size_px=32,
                                  fft_backend=get_backend("fakegpu"),
                                  compute=NO_CACHE, **kwargs)
    return numpy_engine, fake_engine


binary_masks = arrays(np.float64, (4, 32, 32),
                      elements=st.sampled_from([0.0, 1.0]))


# --------------------------------------------------------------------------- #
# transfer counting: residency is provable
# --------------------------------------------------------------------------- #
class TestTransferCounts:
    def test_dense_batch_one_upload_one_download_per_block(self, fakegpu,
                                                           monkeypatch):
        _, engine = make_engines()
        masks = RNG.random((6, 32, 32))
        # A resident block budget of one tile: every tile is its own block.
        with monkeypatch.context() as patch:
            patch.setattr(batched, "RESIDENT_BLOCK_BYTES", 1)
            engine.aerial_batch(masks)
        stats = fakegpu.transfer_stats
        assert stats.uploads == 6 + 1  # one per block + the bank, once
        assert stats.downloads == 6
        # Full-batch block: the whole stack is one upload + one download.
        fakegpu.transfer_stats.reset()
        engine.aerial_batch(masks)
        assert stats.uploads == 1  # bank already device-resident
        assert stats.downloads == 1

    def test_kernel_bank_uploaded_once_per_fingerprint(self, fakegpu):
        _, engine = make_engines()
        masks = RNG.random((2, 32, 32))
        for _ in range(3):
            engine.aerial_batch(masks)
        # 3 chunk uploads + exactly 1 bank upload across all batches.
        assert fakegpu.transfer_stats.uploads == 3 + 1
        # A second engine sharing the bank shares the device copy too.
        other = ExecutionEngine(KERNELS, tile_size_px=32, fft_backend=fakegpu,
                                compute=NO_CACHE)
        other.aerial_batch(masks)
        assert fakegpu.transfer_stats.uploads == 4 + 1

    def test_streaming_layout_counts_and_staging_buffer(self, fakegpu):
        numpy_engine, fake_engine = make_engines()
        layout = RNG.random((70, 70))
        reference = reference_image_layout(numpy_engine, layout, tile_px=32,
                                           guard_px=8)
        with stream_batches(fake_engine, 4):
            result = fake_engine.image_layout(layout, tile_px=32, guard_px=8)
        np.testing.assert_array_equal(reference.aerial, result.aerial)
        np.testing.assert_array_equal(reference.resist, result.resist)
        stats = fakegpu.transfer_stats
        # Each 4-tile batch fits the engine's block: one upload + one
        # download each (7 batches for 25 tiles), plus the bank upload,
        # staged through ONE reusable host buffer.
        assert stats.downloads == 7
        assert stats.uploads == stats.downloads + 1
        assert stats.host_buffer_allocations == 1
        # The default batch (all 25 tiles fit one) stages the same way.
        fakegpu.transfer_stats.reset()
        single = fake_engine.image_layout(layout, tile_px=32, guard_px=8)
        np.testing.assert_array_equal(reference.aerial, single.aerial)
        assert (stats.uploads, stats.downloads) == (1, 1)
        assert stats.host_buffer_allocations == 1

    def test_streaming_layout_with_tile_cache_reuses_the_staging_buffer(
            self, fakegpu):
        """The tile cache admits owned copies, never views of the staged
        batch, so the one-buffer staging holds under a cache too — and
        entries served in later batches were not overwritten by it."""
        numpy_engine, _ = make_engines()
        cache = TileResultCache()
        cached = ExecutionEngine(KERNELS, tile_size_px=32,
                                 fft_backend=fakegpu, compute=NO_CACHE,
                                 tile_cache=cache)
        # 16 px cells at the tile-core pitch: interior tiles repeat, so
        # later batches hit entries admitted from earlier staged batches.
        layout = np.tile(np.random.default_rng(3).random((16, 16)), (5, 5))
        reference = reference_image_layout(numpy_engine, layout, tile_px=32,
                                           guard_px=8)
        with stream_batches(cached, 4):
            result = cached.image_layout(layout, tile_px=32, guard_px=8)
        np.testing.assert_array_equal(reference.aerial, result.aerial)
        np.testing.assert_array_equal(reference.resist, result.resist)
        stats = fakegpu.transfer_stats
        assert cache.stats.hits > 0 and cache.stats.misses > 4
        assert stats.downloads >= 2          # several staged batches ...
        assert stats.uploads == stats.downloads + 1
        assert stats.host_buffer_allocations == 1  # ... through ONE buffer

    def test_api_image_layout_stages_through_one_host_buffer(self, fakegpu):
        """The façade — the CLI, the sweep and the service image the same
        way — gets the engine's staging buffer too, not a fresh batch-sized
        host array per batch."""
        layout = RNG.random((300, 300))
        expected = api.image_layout(layout, CONFIG, guard_px=8,
                                    compute=dataclasses.replace(
                                        NO_CACHE, fft_backend="numpy"))
        fakegpu.transfer_stats.reset()
        result = api.image_layout(layout, CONFIG, guard_px=8,
                                  compute=dataclasses.replace(
                                      NO_CACHE, fft_backend="fakegpu"))
        assert fakegpu.transfer_stats.host_buffer_allocations == 1
        np.testing.assert_array_equal(result.aerial, expected.aerial)
        np.testing.assert_array_equal(result.resist, expected.resist)

    def test_streaming_download_bytes_match_aerial_payload(self, fakegpu):
        _, fake_engine = make_engines()
        masks = RNG.random((3, 32, 32))
        fake_engine.aerial_batch(masks)
        assert fakegpu.transfer_stats.download_bytes == \
            masks.size * np.dtype(np.float64).itemsize

    def test_sharded_serial_path_stays_resident(self, fakegpu, tmp_path):
        spec = EngineSpec(config=CONFIG, cache_dir=str(tmp_path),
                          compute=ComputeConfig(fft_backend="fakegpu"))
        executor = ShardedExecutor(cache_dir=str(tmp_path))
        masks = RNG.random((4, 32, 32))
        reference = ShardedExecutor().aerial_batch(
            EngineSpec(config=CONFIG,
                       compute=ComputeConfig(fft_backend="numpy")), masks)
        fakegpu.transfer_stats.reset()
        _DEVICE_BANKS.clear()
        result = executor.aerial_batch(spec, masks)
        np.testing.assert_array_equal(reference, result)
        stats = fakegpu.transfer_stats
        assert stats.uploads == 1 + 1  # one block + the bank
        assert stats.downloads == 1

    def test_sharded_worker_threads_stay_resident(self, fakegpu, tmp_path):
        """Concurrent callers (two campaigns, say) share this process's
        module: each call is one block — one upload, one download — and the
        bank still goes up once, counted without a lost update."""
        spec = EngineSpec(config=CONFIG, cache_dir=str(tmp_path),
                          compute=ComputeConfig(fft_backend="fakegpu"))
        masks = RNG.random((8, 32, 32))  # one resident block
        reference = ShardedExecutor().aerial_batch(
            EngineSpec(config=CONFIG,
                       compute=ComputeConfig(fft_backend="numpy")), masks)
        results = []
        with ShardedExecutor(cache_dir=str(tmp_path)) as executor:
            executor.warm(spec)
            fakegpu.transfer_stats.reset()
            _DEVICE_BANKS.clear()

            def caller():
                for _ in range(10):
                    results.append(executor.aerial_batch(spec, masks))

            callers = [threading.Thread(target=caller) for _ in range(2)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        assert len(results) == 20
        for result in results:
            np.testing.assert_array_equal(reference, result)
        stats = fakegpu.transfer_stats
        assert stats.uploads == 20 + 1  # a block per call + the bank
        assert stats.downloads == 20
        assert stats.download_bytes == 20 * masks.size * 8

    def test_device_bank_memo_is_lru_bounded(self, fakegpu):
        for index in range(DEVICE_BANK_LIMIT + 3):
            device_kernel_bank(fakegpu, f"bank-{index}", KERNELS)
        assert len(_DEVICE_BANKS) == DEVICE_BANK_LIMIT
        # Re-requesting an evicted bank re-uploads (one more transfer).
        before = fakegpu.transfer_stats.uploads
        device_kernel_bank(fakegpu, "bank-0", KERNELS)
        assert fakegpu.transfer_stats.uploads == before + 1

    def test_legacy_host_calls_count_round_trips(self, fakegpu):
        # Host arrays through a device module's transforms keep today's
        # host-in/host-out semantics but the round-trip is counted.
        host = RNG.random((4, 4))
        result = fakegpu.fft2(host, norm="ortho")
        assert isinstance(result, np.ndarray)
        assert fakegpu.transfer_stats.uploads == 1
        assert fakegpu.transfer_stats.downloads == 1


# --------------------------------------------------------------------------- #
# numerics: fakegpu == numpy, bit for bit
# --------------------------------------------------------------------------- #
class TestFakeGpuEqualsNumpy:
    @settings(max_examples=10, deadline=None)
    @given(masks=binary_masks,
           precision=st.sampled_from(["float64", "float32"]),
           tile=st.sampled_from([32, 16]))
    def test_batched_aerial_bit_for_bit(self, masks, precision, tile):
        # 32 px fits the 18 px band-limit grid of the 9x9 bank (the
        # band-limited chunk); 16 px does not (the direct chunk).
        policy = resolve_precision(precision)
        masks = policy.as_real(masks[:, :tile, :tile])
        kernels = KERNELS.astype(policy.complex_dtype)
        reference = batched_aerial_from_kernels(
            masks, kernels, backend=get_backend("numpy"), precision=policy)
        result = batched_aerial_from_kernels(
            masks, kernels, backend=get_backend("fakegpu"), precision=policy)
        assert result.dtype == reference.dtype
        np.testing.assert_array_equal(reference, result)

    @settings(max_examples=10, deadline=None)
    @given(masks=binary_masks)
    def test_mask_spectrum_bit_for_bit(self, masks):
        module = get_backend("fakegpu")
        reference = mask_spectrum(masks, (9, 9), backend=get_backend("numpy"))
        device = mask_spectrum(module.asarray(masks), (9, 9), backend=module)
        np.testing.assert_array_equal(reference, module.to_host(device))

    def test_out_buffer_result_identical(self, fakegpu):
        _, engine = make_engines()
        masks = RNG.random((3, 32, 32))
        reference = engine.aerial_batch(masks)
        out = np.empty_like(reference)
        returned = engine.aerial_batch(masks, out=out)
        assert returned is out
        np.testing.assert_array_equal(reference, out)


# --------------------------------------------------------------------------- #
# host-math mixing fails loudly
# --------------------------------------------------------------------------- #
class TestDeviceMixing:
    def test_numpy_ufunc_on_device_array_raises(self, fakegpu):
        device = fakegpu.asarray(np.ones((2, 2)))
        with pytest.raises(TypeError):
            np.abs(device)

    def test_binary_op_with_host_ndarray_raises(self, fakegpu):
        device = fakegpu.asarray(np.ones((2, 2)))
        with pytest.raises(DeviceMixingError):
            device * np.ones((2, 2))

    def test_implicit_array_conversion_raises(self, fakegpu):
        device = fakegpu.asarray(np.ones((2, 2)))
        with pytest.raises(DeviceMixingError, match="to_host"):
            np.asarray(device)

    def test_scalars_are_metadata_and_interoperate(self, fakegpu):
        device = fakegpu.asarray(np.full((2, 2), 3.0))
        doubled = fakegpu.to_host(2.0 * device)
        np.testing.assert_array_equal(doubled, np.full((2, 2), 6.0))

    def test_device_mixing_error_is_a_type_error(self):
        assert issubclass(DeviceMixingError, TypeError)


# --------------------------------------------------------------------------- #
# one backend protocol
# --------------------------------------------------------------------------- #
class TestBackendProtocol:
    def test_every_registered_backend_is_an_fft_backend(self):
        for name in available_backends():
            assert isinstance(get_backend(name), FFTBackend), name

    def test_host_ops_are_numpy_verbatim(self):
        backend = NumpyFFTBackend()
        assert backend.device == "cpu" and not backend.is_resident
        fields = RNG.standard_normal((2, 3, 4, 4)) \
            + 1j * RNG.standard_normal((2, 3, 4, 4))
        assert backend.asarray(fields) is fields
        assert backend.to_host(fields) is fields
        assert not backend.is_device_array(fields)
        np.testing.assert_array_equal(backend.abs2_sum(fields, axis=1),
                                      np.sum(np.abs(fields) ** 2, axis=1))
        np.testing.assert_array_equal(backend.conj(fields), np.conj(fields))
        zeros = backend.zeros((2, 3), dtype=np.complex64)
        assert isinstance(zeros, np.ndarray) and zeros.dtype == np.complex64
        assert not zeros.any()
        assert backend.empty((2, 3), dtype=np.float32).dtype == np.float32
        out = np.empty_like(fields)
        assert backend.to_host(fields, out=out) is out
        np.testing.assert_array_equal(out, fields)
        stats = backend.transfer_stats
        assert (stats.uploads, stats.downloads) == (0, 0)

    def test_mask_spectrum_follows_the_mask(self, fakegpu):
        host_mask = RNG.random((2, 32, 32))
        reference = mask_spectrum(host_mask, (9, 9),
                                  backend=get_backend("numpy"))
        # A host mask keeps host semantics: numpy array ops around ONE
        # transform through the device backend — one counted round trip.
        spectrum = mask_spectrum(host_mask, (9, 9), backend=fakegpu)
        assert isinstance(spectrum, np.ndarray)
        np.testing.assert_array_equal(spectrum, reference)
        stats = fakegpu.transfer_stats
        assert (stats.uploads, stats.downloads) == (1, 1)
        # A device mask stays on the device: nothing crosses.
        device_mask = fakegpu.asarray(host_mask)
        stats.reset()
        device = mask_spectrum(device_mask, (9, 9), backend=fakegpu)
        assert fakegpu.is_device_array(device)
        assert (stats.uploads, stats.downloads) == (0, 0)
        np.testing.assert_array_equal(fakegpu.to_host(device), reference)

    def test_transforms_only_backend_drives_an_engine(self, tmp_path):
        probe = RecordingBackend()
        plain = ExecutionEngine.for_optics(CONFIG, compute=NO_CACHE)
        probed = ExecutionEngine.for_optics(CONFIG, fft_backend=probe,
                                            compute=NO_CACHE)
        layout = RNG.random((70, 70))
        expected = plain.image_layout(layout, guard_px=8,
                                      out_dir=str(tmp_path / "plain"))
        result = probed.image_layout(layout, guard_px=8,
                                     out_dir=str(tmp_path / "probed"))
        assert probe.calls
        np.testing.assert_array_equal(expected.aerial, result.aerial)
        np.testing.assert_array_equal(expected.resist, result.resist)
        assert open_layout_dir(str(tmp_path / "probed"))[2]["backend"] == \
            open_layout_dir(str(tmp_path / "plain"))[2]["backend"]

    def test_transforms_only_backend_drives_a_sharded_executor(
            self, monkeypatch):
        probe = RecordingBackend()
        spec = EngineSpec(config=CONFIG, compute=NO_CACHE)
        assert spec.compute.fft_backend == probe.name
        reader = load_layout_source(HIER4, CONFIG.pixel_size_nm)
        with ShardedExecutor() as plain:
            expected = plain.image_layout(spec, reader, guard_px=8)
        cache = TileResultCache()
        monkeypatch.setattr(tile_cache_module, "_default_cache", cache)
        cached = EngineSpec(config=CONFIG,
                            compute=dataclasses.replace(NO_CACHE,
                                                        tile_cache=True))
        with ShardedExecutor() as probed:
            probed.warm(cached).backend = probe
            result = probed.image_layout(cached, reader, guard_px=8)
            assert cache.stats.misses > 0
        assert probe.calls
        np.testing.assert_array_equal(expected.aerial, result.aerial)
        np.testing.assert_array_equal(expected.resist, result.resist)


# --------------------------------------------------------------------------- #
# --precision auto
# --------------------------------------------------------------------------- #
class TestAutoPrecision:
    def test_autotune_picks_float32_when_truncation_dominates(self):
        # Least-energetic kernel carries ~1e-2 of the energy: truncation
        # error far above float32's documented 1e-4 tolerance.
        kernels = np.stack([np.full((4, 4), 1.0 + 0j),
                            np.full((4, 4), 0.1 + 0j)])
        assert autotune_precision(kernels) is FLOAT32

    def test_autotune_keeps_float64_for_tight_banks(self):
        # Both kernels matter equally down to ~1e-6 of the energy: dtype
        # error would dominate, stay in float64.
        kernels = np.stack([np.full((4, 4), 1.0 + 0j),
                            np.full((4, 4), 1e-3 + 0j)])
        assert autotune_precision(kernels) is FLOAT64

    def test_is_auto_precision_spellings(self, monkeypatch):
        assert is_auto_precision("auto")
        assert not is_auto_precision("float32")
        assert not is_auto_precision(FLOAT64)
        monkeypatch.setenv("REPRO_PRECISION", "auto")
        assert is_auto_precision(None)

    def test_resolve_precision_rejects_auto_with_pointer(self):
        with pytest.raises(ValueError, match="kernel bank"):
            resolve_precision("auto")

    def test_engine_constructor_resolves_auto(self):
        engine = ExecutionEngine(KERNELS, tile_size_px=32,
                                 compute=dataclasses.replace(
                                     NO_CACHE, precision="auto"))
        assert engine.precision in (FLOAT32, FLOAT64)
        assert engine.kernels.dtype == engine.precision.complex_dtype

    def test_for_optics_resolves_auto(self):
        engine = ExecutionEngine.for_optics(
            CONFIG, compute=ComputeConfig(precision="auto"))
        assert engine.precision in (FLOAT32, FLOAT64)

    def test_engine_spec_ships_concrete_name_to_workers(self, tmp_path):
        spec = EngineSpec(config=CONFIG, cache_dir=str(tmp_path),
                          compute=ComputeConfig(precision="auto"))
        assert spec.compute.precision in ("float32", "float64")
        assert "auto" not in spec.fingerprint()
        # The spec's engine runs at exactly the precision the parent chose.
        engine = spec.build()
        assert engine.precision.name == spec.compute.precision
