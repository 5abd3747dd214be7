"""Tests for the compute-backend layer (repro.backend) and its engine wiring.

Pinned guarantees:

* one FFT library: :func:`get_backend` is the numpy backend, one instance
  per thread budget, and nothing selects another by name,
* the numpy backend's two-pass ``fft2`` / ``ifft2`` are ``numpy.fft``'s
  bit for bit, in both precisions and every ``norm``, and it matches an
  independent ``scipy.fft`` oracle (``tests/reference.py``) to 1e-12,
* the ``rfft2`` half-spectrum paths (mask spectra and the band-limited
  Fourier upsampling) equal the plain ``numpy.fft`` full-spectrum reference
  of ``tests/reference.py`` to ~1e-12 in float64 in every backend cell
  — property-tested over random masks,
* float32 aerial images agree with the float64 reference within the
  documented ``Precision.aerial_rtol`` (~1e-4), including through the
  tiled / stitched layout path,
* the kernel-bank cache keeps one float64 bank per optics and every engine
  casts it to its own precision (banks never mix dtypes, and a float32 /
  ``auto`` engine is byte for byte the one a cached float32 bank gave),
  and the byte-denominated chunk budget doubles the effective batch size at
  single precision,
* ``EngineSpec`` resolves and round-trips thread budget + precision, so
  sharded workers reconstruct the parent's exact compute policy, and only
  the precision is identity.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.backend
from reference import (
    BACKEND_CELLS,
    SHARES,
    RecordingBackend,
    ScipyOracle,
    assert_ran_on_shares,
    cell_backend,
    embed_centre,
    reference_aerial,
    reference_mask_spectrum,
    threads_seen,
)
from repro.backend import (
    FLOAT32,
    FLOAT64,
    ComputeConfig,
    FFTBackend,
    NumpyFFTBackend,
    default_fft_workers,
    get_backend,
    resolve_precision,
)
from repro.engine import (
    EngineSpec,
    ExecutionEngine,
    KernelBankCache,
    batch_chunk_size,
    batched_aerial_from_kernels,
)
from repro.optics import OpticsConfig
from repro.optics.aerial import mask_spectrum
from repro.optics.grid import embed_centre_unshifted
from repro.optics.pupil import Pupil
from repro.optics.source import CircularSource

FINE = OpticsConfig(tile_size_px=64, pixel_size_nm=4.0, max_socs_order=12)
SOURCE = CircularSource(sigma=0.6)


@pytest.fixture(scope="module")
def kernels():
    bank = KernelBankCache().get_kernels(FINE, SOURCE, Pupil())
    return bank.kernels


binary_masks = arrays(np.float64, (3, 64, 64), elements=st.sampled_from([0.0, 1.0]))


class TestGetBackend:
    def test_get_backend_is_the_numpy_backend_one_per_budget(self):
        backend = get_backend()
        assert isinstance(backend, NumpyFFTBackend)
        assert backend.name == "numpy"
        assert backend.workers == default_fft_workers()
        assert get_backend() is backend
        assert get_backend(3).workers == 3
        assert get_backend(3) is get_backend(workers=3)

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_the_budget_reaches_the_engine_that_images(self, workers):
        """``fft_workers`` reaches the engine's backend, and that engine
        images a layout."""
        engine = ExecutionEngine.for_optics(
            FINE, source=SOURCE, cache=KernelBankCache(),
            compute=ComputeConfig(fft_workers=workers))
        assert engine.backend is get_backend(workers)
        assert engine.backend.workers == (workers or default_fft_workers())
        layout = (np.random.default_rng(5).random((96, 160)) > 0.7) * 1.0
        result = engine.image_layout(layout, guard_px=8)
        assert result.aerial.shape == layout.shape

    def test_nothing_selects_a_backend_by_name(self, monkeypatch):
        """The registry, the scipy backend and ``REPRO_FFT_BACKEND`` are
        gone: an old environment changes nothing, and a name is no
        backend."""
        for name in ("ScipyFFTBackend", "register_backend",
                     "registered_backends", "FFT_BACKEND_ENV_VAR"):
            assert not hasattr(repro.backend, name), name
        monkeypatch.setenv("REPRO_FFT_BACKEND", "scipy")
        assert isinstance(get_backend(), NumpyFFTBackend)
        with pytest.raises(TypeError, match="FFTBackend instance"):
            ExecutionEngine(np.ones((1, 3, 3)), fft_backend="numpy")
        with pytest.raises(TypeError, match="fft_backend"):
            ComputeConfig(fft_backend="numpy")


class TestFFTWorkerDefault:
    def test_env_override(self, monkeypatch):
        from repro.backend.fft import FFT_WORKERS_ENV_VAR

        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, "3")
        assert default_fft_workers() == 3
        assert NumpyFFTBackend().workers == 3
        assert NumpyFFTBackend(workers=2).workers == 2

    @pytest.mark.parametrize("value", ["", "0", "-2"])
    def test_unset_or_non_positive_env_follows_cpu_affinity(self, monkeypatch,
                                                            value):
        from repro.backend.fft import FFT_WORKERS_ENV_VAR, available_cpus

        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, value)
        assert default_fft_workers() == available_cpus() >= 1

    def test_non_integer_env_fails_loudly(self, monkeypatch):
        from repro.backend.fft import FFT_WORKERS_ENV_VAR

        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="must be an integer, got 'many'"):
            default_fft_workers()


class TestPrecisionPolicy:
    def test_defaults_to_float64(self):
        assert resolve_precision() is FLOAT64
        assert resolve_precision(None).complex_dtype == np.complex128

    @pytest.mark.parametrize("spelling", ["float32", "single", np.float32,
                                          np.complex64, FLOAT32])
    def test_float32_spellings(self, spelling):
        assert resolve_precision(spelling) is FLOAT32

    def test_the_environment_selects_no_precision(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRECISION", "float32")
        assert resolve_precision() is FLOAT64

    def test_unknown_precision_fails_loudly(self):
        with pytest.raises(ValueError, match="supported precisions"):
            resolve_precision("float16")

    def test_available_precisions_resolve_to_themselves(self):
        from repro.backend.precision import available_precisions

        assert available_precisions() == ("float32", "float64")
        assert [resolve_precision(name) for name in available_precisions()] \
            == [FLOAT32, FLOAT64]

    def test_byte_budget_doubles_float32_batch(self):
        # Same byte cap, half the itemsize -> twice the masks per chunk.
        cap = 24 * 64 * 64 * 16 * 2
        assert batch_chunk_size(16, 24, 64, 64, cap, itemsize=16) == 2
        assert batch_chunk_size(16, 24, 64, 64, cap, itemsize=8) == 4

    def test_cache_banks_never_mix_dtypes(self):
        """One float64 master per optics; each engine casts its own copy."""
        cache = KernelBankCache()
        bank = cache.get_kernels(FINE, SOURCE, Pupil())
        engine64 = ExecutionEngine.for_optics(
            FINE, SOURCE, cache=cache, compute=ComputeConfig(precision="float64"))
        engine32 = ExecutionEngine.for_optics(
            FINE, SOURCE, cache=cache, compute=ComputeConfig(precision="float32"))
        assert engine64.kernels.dtype == np.complex128
        assert engine32.kernels.dtype == np.complex64
        assert bank is cache.get_kernels(FINE, SOURCE, Pupil())
        assert bank.kernels.dtype == np.complex128
        assert len(cache) == 1 and cache.stats.decompositions == 1
        np.testing.assert_array_equal(engine32.kernels,
                                      bank.kernels.astype(np.complex64))

    def test_cache_disk_roundtrip_preserves_precision(self, tmp_path):
        writer = KernelBankCache(cache_dir=str(tmp_path))
        written = ExecutionEngine.for_optics(
            FINE, SOURCE, cache=writer, compute=ComputeConfig(precision="float32"))
        reader = KernelBankCache(cache_dir=str(tmp_path))
        loaded = ExecutionEngine.for_optics(
            FINE, SOURCE, cache=reader, compute=ComputeConfig(precision="float32"))
        assert reader.stats.decompositions == 0
        assert reader.stats.disk_loads == 1
        assert loaded.kernels.dtype == np.complex64
        np.testing.assert_array_equal(loaded.kernels, written.kernels)

    @pytest.mark.parametrize("precision", ["float32", "auto"])
    def test_single_precision_engine_equals_a_cached_float32_bank(
            self, tmp_path, precision):
        """A float32 / ``auto`` engine built through a disk-backed cache is
        byte for byte the engine a cached float32 bank — the float64 master
        cast to complex64 — gives: kernels, ``kernel_fingerprint()`` and
        aerials.  Only the master reaches the disk."""
        cache_dir = tmp_path / "kernels"
        engine = ExecutionEngine.for_optics(
            FINE, SOURCE, cache=KernelBankCache(cache_dir=str(cache_dir)),
            compute=ComputeConfig(precision=precision))
        master = KernelBankCache().get_kernels(FINE, SOURCE, Pupil())
        reference = ExecutionEngine(
            master.kernels.astype(np.complex64),
            tile_size_px=FINE.tile_size_px,
            compute=ComputeConfig(precision="float32"))
        assert engine.precision is FLOAT32
        assert engine.kernels.dtype == reference.kernels.dtype
        assert engine.kernels.tobytes() == reference.kernels.tobytes()
        assert engine.kernel_fingerprint() == reference.kernel_fingerprint()
        masks = (np.random.default_rng(5).random((2, 64, 64)) > 0.5) * 1.0
        np.testing.assert_array_equal(engine.aerial_batch(masks),
                                      reference.aerial_batch(masks))
        assert len(list(cache_dir.glob("kernels-*.npz"))) == 1


class TestHalfSpectrumEquivalence:
    """rfft2 production path == full-spectrum numpy.fft reference (~1e-12)."""

    @given(mask=binary_masks)
    @settings(max_examples=10, deadline=None)
    def test_mask_spectrum_half_equals_full(self, mask):
        full = reference_mask_spectrum(mask, (13, 13))
        for cell in BACKEND_CELLS:
            half = mask_spectrum(mask, (13, 13), backend=cell_backend(cell))
            np.testing.assert_allclose(half, full, rtol=0, atol=1e-12)

    def test_mask_spectrum_full_window_and_odd_sizes(self):
        rng = np.random.default_rng(11)
        for shape, window in [((47, 53), (9, 7)), ((48, 48), None),
                              ((33, 48), (33, 48)), ((24, 24), (10, 13))]:
            mask = rng.random(shape)
            full = reference_mask_spectrum(mask, window)
            for cell in BACKEND_CELLS:
                half = mask_spectrum(mask, window, backend=cell_backend(cell))
                np.testing.assert_allclose(half, full, rtol=0, atol=1e-12)

    def test_mask_spectrum_rejects_oversized_window(self):
        with pytest.raises(ValueError):
            mask_spectrum(np.zeros((8, 8)), (9, 9))
        with pytest.raises(ValueError, match="real"):
            mask_spectrum(np.zeros((8, 8), dtype=complex))

    @given(mask=binary_masks)
    @settings(max_examples=8, deadline=None)
    def test_batched_aerial_half_equals_full_spectrum(self, kernels, mask):
        full = reference_aerial(mask, kernels)
        for cell in BACKEND_CELLS:
            with threads_seen() as seen:
                fast = batched_aerial_from_kernels(
                    mask, kernels, backend=cell_backend(cell))
            if cell == SHARES:
                assert_ran_on_shares(seen)
            np.testing.assert_allclose(fast, full, rtol=1e-12, atol=1e-12)

    def test_direct_path_half_equals_full_spectrum(self, kernels):
        # 12 px tiles are smaller than the 14 px band-limit grid of the
        # 7x7 bank, so the direct full-size chunk runs (shapes decide).
        masks = (np.random.default_rng(3).random((4, 12, 12)) > 0.6).astype(float)
        recorder = RecordingBackend()
        batched_aerial_from_kernels(masks, kernels, backend=recorder)
        assert recorder.shapes("ifft2") == [(4, len(kernels), 12, 12)]
        assert recorder.shapes("irfft2") == []
        full = reference_aerial(masks, kernels)
        for cell in BACKEND_CELLS:
            with threads_seen() as seen:
                fast = batched_aerial_from_kernels(
                    masks, kernels, backend=cell_backend(cell))
            if cell == SHARES:
                assert_ran_on_shares(seen)
            np.testing.assert_allclose(fast, full, rtol=1e-12, atol=1e-12)

    def test_embed_centre_unshifted_equals_shifted_embed(self):
        """The fused embed IS ifftshift(embed_centre(...)) — bit for bit.

        This is what removed the per-chunk full-size ``ifftshift`` from the
        batched hot loop.
        """
        rng = np.random.default_rng(7)
        for block_shape, target in [((5, 9, 7), (16, 16)), ((3, 8, 8), (8, 8)),
                                    ((2, 1, 1), (5, 4)), ((4, 13, 13), (47, 53))]:
            block = rng.normal(size=block_shape) + 1j * rng.normal(size=block_shape)
            fused = embed_centre_unshifted(block, *target)
            reference = np.fft.ifftshift(embed_centre(block, *target),
                                         axes=(-2, -1))
            np.testing.assert_array_equal(fused, reference)

    def test_backend_cells_and_the_scipy_oracle_agree_on_aerials(
            self, kernels):
        """Every backend cell images the shared fixture bit for bit like the
        numpy backend, and an independent FFT library (``scipy.fft``,
        test-side) to 1e-12."""
        masks = (np.random.default_rng(9).random((3, 64, 64)) > 0.7).astype(float)
        reference = batched_aerial_from_kernels(masks, kernels,
                                                backend=get_backend(1))
        for cell in BACKEND_CELLS:
            other = batched_aerial_from_kernels(masks, kernels,
                                                backend=cell_backend(cell))
            np.testing.assert_array_equal(other, reference)
        pytest.importorskip("scipy.fft")
        oracle = batched_aerial_from_kernels(masks, kernels,
                                             backend=ScipyOracle())
        np.testing.assert_allclose(reference, oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_numpy_transforms_match_the_scipy_oracle(self, dtype):
        pytest.importorskip("scipy.fft")
        backend, oracle = get_backend(), ScipyOracle()
        rng = np.random.default_rng(12)
        real = rng.random((3, 60, 58)).astype(dtype)
        spectrum = backend.fft2(real)
        tolerance = 1e-12 if dtype == np.float64 else 1e-4
        for norm in (None, "ortho", "forward"):
            for method, data, extra in (("fft2", real, {}),
                                        ("ifft2", spectrum, {}),
                                        ("rfft2", real, {}),
                                        ("irfft2", spectrum[..., :30],
                                         {"s": (60, 58)})):
                got = getattr(backend, method)(data, norm=norm, **extra)
                want = getattr(oracle, method)(data, norm=norm, **extra)
                assert got.dtype == want.dtype, (method, norm)
                scale = max(float(np.abs(want).max()), 1.0)
                assert np.abs(got - want).max() / scale < tolerance, \
                    (method, norm)

    def test_workers_never_change_results(self, kernels):
        masks = (np.random.default_rng(10).random((4, 64, 64)) > 0.7).astype(float)
        one = batched_aerial_from_kernels(masks, kernels,
                                          backend=get_backend(1))
        with threads_seen() as seen:
            many = batched_aerial_from_kernels(masks, kernels,
                                               backend=get_backend(4))
        assert_ran_on_shares(seen)
        np.testing.assert_array_equal(one, many)


class TestFloat32Accuracy:
    """float32 aerials within the documented rtol (~1e-4) of float64."""

    @given(mask=binary_masks)
    @settings(max_examples=8, deadline=None)
    def test_single_precision_aerials_within_documented_rtol(self, kernels, mask):
        ref = batched_aerial_from_kernels(mask, kernels, precision="float64")
        low = batched_aerial_from_kernels(mask, kernels, precision="float32")
        assert low.dtype == np.float32
        scale = max(float(ref.max()), 1e-30)
        assert np.abs(low - ref).max() / scale < FLOAT32.aerial_rtol

    def test_tiled_stitched_path_within_documented_rtol(self):
        layout = (np.random.default_rng(5).random((192, 256)) > 0.8).astype(float)
        cache = KernelBankCache()
        ref = ExecutionEngine.for_optics(FINE, source=SOURCE, cache=cache) \
            .image_layout(layout, tile_px=64, guard_px=16)
        low = ExecutionEngine.for_optics(
            FINE, source=SOURCE, cache=cache,
            compute=ComputeConfig(precision="float32")) \
            .image_layout(layout, tile_px=64, guard_px=16)
        assert low.aerial.dtype == np.float32
        scale = float(ref.aerial.max())
        assert np.abs(low.aerial - ref.aerial).max() / scale < FLOAT32.aerial_rtol
        # Resist patterns may differ only where the aerial grazes the
        # threshold; on this fixture they agree everywhere.
        assert (low.resist != ref.resist).mean() < 1e-3

    def test_every_backend_and_precision_images_like_numpy_float64(self):
        """The backend x precision matrix on one tiled layout: each cell
        within its documented tolerance of the numpy / float64 image."""
        layout = (np.random.default_rng(3).random((192, 256)) > 0.8) * 1.0
        cache = KernelBankCache()

        def aerial(backend, precision):
            return ExecutionEngine.for_optics(
                FINE, source=SOURCE, cache=cache,
                fft_backend=cell_backend(backend),
                compute=ComputeConfig(precision=precision)) \
                .image_layout(layout, guard_px=16).aerial

        reference = aerial("numpy", "float64")
        scale = float(reference.max())
        cells = [(backend, precision) for backend in BACKEND_CELLS
                 for precision in ("float64", "float32")]
        for backend, precision in cells:
            with threads_seen() as seen:
                image = aerial(backend, precision)
            if backend == SHARES:
                assert_ran_on_shares(seen)
            assert image.dtype == resolve_precision(precision).real_dtype
            tolerance = FLOAT32.aerial_rtol if precision == "float32" \
                else 1e-12
            assert np.abs(image - reference).max() / scale < tolerance, \
                (backend, precision)

    def test_engine_rejects_workers_with_backend_instance(self, kernels):
        """fft_workers cannot silently miss an already-built backend."""
        with pytest.raises(ValueError, match="fft_workers"):
            ExecutionEngine(kernels, fft_backend=get_backend(),
                            compute=ComputeConfig(fft_workers=4))

    def test_engine_preserves_policy_through_truncate(self):
        cache = KernelBankCache()
        engine = ExecutionEngine.for_optics(
            FINE, source=SOURCE, cache=cache,
            compute=ComputeConfig(fft_workers=2, precision="float32"))
        truncated = engine.truncate(2)
        assert truncated.order == 2
        assert truncated.precision is FLOAT32
        assert truncated.backend is engine.backend is get_backend(2)
        assert truncated.kernels.dtype == np.complex64


class TestEngineSpecComputePolicy:
    def test_spec_resolves_concrete_precision(self):
        spec = EngineSpec(config=FINE, source=SOURCE)
        assert spec.compute == ComputeConfig(precision="float64")
        assert spec.fingerprint().endswith("|fft=numpy|prec=float64")

    def test_spec_roundtrips_budget_and_precision(self):
        spec = EngineSpec(config=FINE, source=SOURCE,
                          compute=ComputeConfig(fft_workers=3,
                                                precision="float32"))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.compute == ComputeConfig(fft_workers=3,
                                              precision="float32")
        assert clone.fingerprint() == spec.fingerprint()
        engine = clone.build(cache=KernelBankCache())
        assert engine.backend is get_backend(3)
        assert engine.precision is FLOAT32
        assert engine.kernels.dtype == np.complex64

    def test_precision_changes_fingerprint_and_workers_do_not(self):
        numpy64 = ComputeConfig()
        base = EngineSpec(config=FINE, source=SOURCE, compute=numpy64)
        assert base.fingerprint() != \
            EngineSpec(config=FINE, source=SOURCE,
                       compute=dataclasses.replace(numpy64,
                                                   precision="float32")
                       ).fingerprint()
        for workers in (1, 2, 3):
            assert base.fingerprint() == \
                EngineSpec(config=FINE, source=SOURCE,
                           compute=dataclasses.replace(numpy64,
                                                       fft_workers=workers)
                           ).fingerprint()

    def test_with_focus_keeps_policy(self):
        spec = EngineSpec(config=FINE, source=SOURCE,
                          compute=ComputeConfig(fft_workers=2,
                                                precision="float32"))
        assert spec.with_focus(40.0).compute == spec.compute

    def test_spec_resolution_ignores_worker_environment(self, monkeypatch):
        """A worker's environment cannot reinterpret a spec's policy."""
        spec = EngineSpec(config=FINE, source=SOURCE)
        monkeypatch.setenv("REPRO_PRECISION", "float16")
        engine = spec.build(cache=KernelBankCache())
        assert engine.precision.name == "float64"


class TestBackendProtocolCoverage:
    def test_numpy_backend_keeps_single_precision(self):
        backend = get_backend()
        x32 = np.random.default_rng(0).random((4, 16, 16)).astype(np.float32)
        assert backend.fft2(x32).dtype == np.complex64
        assert backend.rfft2(x32).dtype == np.complex64
        spectrum = backend.rfft2(x32)
        assert backend.irfft2(spectrum, s=(16, 16)).dtype == np.float32
        assert backend.ifft2(backend.fft2(x32)).dtype == np.complex64

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_two_pass_fft2_and_ifft2_are_numpy_bit_for_bit(self, dtype):
        """``fft2`` / ``ifft2`` are two 1-D passes, the second written into
        the first's output: ``numpy.fft.fft2`` / ``ifft2``'s bits in every
        ``norm``, and the input is left as it was."""
        backend = get_backend()
        rng = np.random.default_rng(8)
        data = (rng.standard_normal((2, 3, 60, 58))
                + 1j * rng.standard_normal((2, 3, 60, 58))).astype(dtype)
        given = data.copy()
        for norm in (None, "backward", "ortho", "forward"):
            for ours, numpys in ((backend.fft2, np.fft.fft2),
                                 (backend.ifft2, np.fft.ifft2)):
                got, want = ours(given, norm=norm), numpys(data, norm=norm)
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes(), (numpys, norm)
        assert given.tobytes() == data.tobytes()

    @pytest.mark.parametrize("cell", BACKEND_CELLS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_no_transform_modifies_its_input(self, cell, dtype):
        """The batched core transforms one reused scratch array block after
        block, so an in-place transform (multi-dimensional c2r is the classic
        one) would corrupt every tile after the first."""
        backend = cell_backend(cell)
        rng = np.random.default_rng(5)
        real = rng.random((3, 12, 10)).astype(dtype)
        spectrum = (rng.random((3, 12, 10)) + 1j * rng.random((3, 12, 10))
                    ).astype(np.result_type(dtype, np.complex64))
        half = spectrum[..., :6].copy()
        for method, data, extra in (("fft2", spectrum, {}),
                                    ("ifft2", spectrum, {}),
                                    ("rfft2", real, {}),
                                    ("irfft2", half, {"s": (12, 10)})):
            for norm in (None, "ortho", "forward"):
                given = data.copy()
                getattr(backend, method)(given, norm=norm, **extra)
                np.testing.assert_array_equal(
                    given, data, err_msg=f"{cell}.{method}(norm={norm})")

    def test_every_backend_cell_satisfies_the_protocol(self):
        rng = np.random.default_rng(1)
        x = rng.random((2, 12, 12))
        for cell in BACKEND_CELLS:
            backend = cell_backend(cell)
            assert isinstance(backend, FFTBackend)
            roundtrip = backend.ifft2(backend.fft2(x, norm="ortho"), norm="ortho")
            np.testing.assert_allclose(np.real(roundtrip), x, atol=1e-10)
            half = backend.rfft2(x, norm="ortho")
            assert half.shape == (2, 12, 7)
            np.testing.assert_allclose(
                backend.irfft2(half, s=(12, 12), norm="ortho"), x, atol=1e-10)
