"""Tests for the compute-backend layer (repro.backend) and its engine wiring.

Pinned guarantees:

* backend registry: explicit names, ``REPRO_FFT_BACKEND`` selection, loud
  failure (listing registered backends) for unknown values, and pluggable
  registration,
* the ``rfft2`` half-spectrum paths (mask spectra and the band-limited
  Fourier upsampling) equal the plain ``numpy.fft`` full-spectrum reference
  of ``tests/reference.py`` to ~1e-12 in float64 on every available backend
  — property-tested over random masks,
* float32 aerial images agree with the float64 reference within the
  documented ``Precision.aerial_rtol`` (~1e-4), including through the
  tiled / stitched layout path,
* the kernel-bank cache keeps one float64 bank per optics and every engine
  casts it to its own precision (banks never mix dtypes, and a float32 /
  ``auto`` engine is byte for byte the one a cached float32 bank gave),
  and the byte-denominated chunk budget doubles the effective batch size at
  single precision,
* ``EngineSpec`` resolves and round-trips backend + precision, so sharded
  workers reconstruct the parent's exact compute policy.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import (
    TRANSFORMS_ONLY,
    RecordingBackend,
    available_backends,
    embed_centre,
    reference_aerial,
    reference_mask_spectrum,
    transforms_only_registered,
)
from repro.backend import (
    FLOAT32,
    FLOAT64,
    ComputeConfig,
    FFTBackend,
    NumpyFFTBackend,
    get_backend,
    register_backend,
    registered_backends,
    resolve_precision,
)
from repro.backend.fft import _REGISTRY
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


class TestRegistry:
    def test_numpy_always_available(self):
        backend = get_backend("numpy")
        assert isinstance(backend, NumpyFFTBackend)
        assert backend.name == "numpy"
        assert "numpy" in registered_backends()
        assert "numpy" in available_backends()

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_FFT_BACKEND", "numpy")
        assert get_backend().name == "numpy"

    @pytest.mark.parametrize("name", ["numpy", "scipy"])
    def test_the_env_selected_backend_is_the_one_an_engine_images_with(
            self, monkeypatch, name):
        """``REPRO_FFT_BACKEND`` reaches the engine that images, not just
        :func:`get_backend`, and that engine images a layout."""
        if name not in available_backends():
            pytest.skip(f"{name} does not construct here")
        monkeypatch.setenv("REPRO_FFT_BACKEND", name)
        engine = ExecutionEngine.for_optics(FINE, source=SOURCE,
                                            cache=KernelBankCache())
        assert engine.backend.name == name
        layout = (np.random.default_rng(5).random((96, 160)) > 0.7) * 1.0
        result = engine.image_layout(layout, guard_px=8)
        assert result.aerial.shape == layout.shape

    def test_bogus_env_value_fails_loudly_with_registered_list(self, monkeypatch):
        monkeypatch.setenv("REPRO_FFT_BACKEND", "warpdrive")
        with pytest.raises(ValueError) as excinfo:
            get_backend()
        message = str(excinfo.value)
        assert "warpdrive" in message
        assert "REPRO_FFT_BACKEND" in message
        for name in registered_backends():
            assert name in message

    def test_bogus_argument_fails_loudly(self):
        with pytest.raises(ValueError, match="registered backends"):
            get_backend("not-a-backend")

    def test_the_registry_holds_the_two_backends_that_ship(self):
        """The device-resident lane and the pyFFTW hook are gone: their
        names are as unknown as any other."""
        assert registered_backends() == ("numpy", "scipy")
        for name in ("fakegpu", "cupy", "pyfftw"):
            with pytest.raises(ValueError) as excinfo:
                get_backend(name)
            assert str(excinfo.value) == (
                f"unknown FFT backend {name!r} (from argument); registered "
                f"backends: numpy, scipy")

    def test_auto_prefers_scipy_when_importable(self):
        pytest.importorskip("scipy.fft")
        assert get_backend("auto").name == "scipy"

    @pytest.mark.parametrize("have_scipy,resolved,why", [
        (True, "scipy", "scipy is importable"),
        (False, "numpy", "scipy is not importable"),
    ])
    def test_auto_resolution_is_logged_once_with_its_reason(
            self, monkeypatch, caplog, have_scipy, resolved, why):
        """The silent ``auto`` decision is said — INFO under
        ``repro.backend``, once per process, naming what it chose and why;
        an explicit name decides nothing and logs nothing."""
        import logging

        from repro.backend import fft as fft_module

        if have_scipy:
            pytest.importorskip("scipy.fft")
        monkeypatch.setattr(fft_module, "_scipy_importable",
                            lambda: have_scipy)
        monkeypatch.setattr(fft_module, "_auto_logged", False)
        monkeypatch.delenv("REPRO_FFT_BACKEND", raising=False)
        with caplog.at_level(logging.INFO, logger="repro.backend"):
            get_backend("numpy")
            assert not caplog.records
            for _ in range(3):
                assert get_backend().name == resolved
        (record,) = caplog.records
        assert record.name.startswith("repro.backend")
        assert record.levelno == logging.INFO
        assert repr(resolved) in record.getMessage()
        assert why in record.getMessage()

    def test_register_backend_makes_name_selectable(self):
        class Probe(NumpyFFTBackend):
            name = "probe"

        register_backend("probe", lambda workers: Probe(workers=workers))
        try:
            assert get_backend("probe").name == "probe"
            assert "probe" in registered_backends()
        finally:
            _REGISTRY.pop("probe", None)

    def test_factory_must_return_an_fft_backend(self):
        """A duck-typed object would fail mid-block on the inherited
        transforms; it is rejected where it is resolved, naming the backend."""
        class Duck:
            name = "duck"

        register_backend("duck", lambda workers: Duck())
        try:
            with pytest.raises(TypeError, match="'duck'.*Duck.*FFTBackend"):
                get_backend("duck")
            assert "duck" not in available_backends()
        finally:
            _REGISTRY.pop("duck", None)

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            register_backend("auto", lambda workers: NumpyFFTBackend())

    def test_engine_spec_rejects_bogus_backend(self):
        with pytest.raises(ValueError, match="registered backends"):
            EngineSpec(config=FINE,
                       compute=ComputeConfig(fft_backend="warpdrive"))


class TestFFTWorkerDefault:
    def test_env_override(self, monkeypatch):
        from repro.backend.fft import FFT_WORKERS_ENV_VAR, default_fft_workers

        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, "3")
        assert default_fft_workers() == 3

    @pytest.mark.parametrize("value", ["", "0", "-2"])
    def test_unset_or_non_positive_env_follows_cpu_affinity(self, monkeypatch,
                                                            value):
        from repro.backend.fft import (
            FFT_WORKERS_ENV_VAR,
            available_cpus,
            default_fft_workers,
        )

        monkeypatch.setenv(FFT_WORKERS_ENV_VAR, value)
        assert default_fft_workers() == available_cpus() >= 1

    def test_non_integer_env_fails_loudly(self, monkeypatch):
        from repro.backend.fft import FFT_WORKERS_ENV_VAR, default_fft_workers

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

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRECISION", "float32")
        assert resolve_precision() is FLOAT32

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

    def test_env_selected_float32_bank_terminates(self, monkeypatch):
        """REPRO_PRECISION=float32: one decomposition, a complex64 engine —
        the cache serves its float64 master whatever the environment says."""
        monkeypatch.setenv("REPRO_PRECISION", "float32")
        cache = KernelBankCache()
        engine = ExecutionEngine.for_optics(FINE, SOURCE, cache=cache)
        assert engine.kernels.dtype == np.complex64
        assert cache.get_kernels(FINE, SOURCE, Pupil()).kernels.dtype == \
            np.complex128
        assert cache.stats.decompositions == 1

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
            compute=ComputeConfig(fft_backend="numpy", precision=precision))
        master = KernelBankCache().get_kernels(FINE, SOURCE, Pupil())
        reference = ExecutionEngine(
            master.kernels.astype(np.complex64),
            tile_size_px=FINE.tile_size_px,
            compute=ComputeConfig(fft_backend="numpy", precision="float32"))
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
        for backend_name in available_backends():
            half = mask_spectrum(mask, (13, 13),
                                 backend=get_backend(backend_name))
            np.testing.assert_allclose(half, full, rtol=0, atol=1e-12)

    def test_mask_spectrum_full_window_and_odd_sizes(self):
        rng = np.random.default_rng(11)
        for shape, window in [((47, 53), (9, 7)), ((48, 48), None),
                              ((33, 48), (33, 48)), ((24, 24), (10, 13))]:
            mask = rng.random(shape)
            full = reference_mask_spectrum(mask, window)
            for backend_name in available_backends():
                half = mask_spectrum(mask, window,
                                     backend=get_backend(backend_name))
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
        for backend_name in available_backends():
            fast = batched_aerial_from_kernels(mask, kernels,
                                               backend=backend_name)
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
        for backend_name in available_backends():
            fast = batched_aerial_from_kernels(masks, kernels,
                                               backend=backend_name)
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

    def test_backends_agree_on_aerials(self, kernels):
        """Every available backend images the shared fixture to ~1e-12."""
        masks = (np.random.default_rng(9).random((3, 64, 64)) > 0.7).astype(float)
        reference = batched_aerial_from_kernels(masks, kernels, backend="numpy")
        for name in available_backends():
            other = batched_aerial_from_kernels(masks, kernels, backend=name)
            np.testing.assert_allclose(other, reference, rtol=1e-12, atol=1e-12)

    def test_scipy_workers_never_change_results(self, kernels):
        pytest.importorskip("scipy.fft")
        masks = (np.random.default_rng(10).random((4, 64, 64)) > 0.7).astype(float)
        one = batched_aerial_from_kernels(
            masks, kernels, backend=get_backend("scipy", workers=1))
        many = batched_aerial_from_kernels(
            masks, kernels, backend=get_backend("scipy", workers=4))
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
                compute=ComputeConfig(fft_backend=backend,
                                      precision=precision)) \
                .image_layout(layout, guard_px=16).aerial

        reference = aerial("numpy", "float64")
        scale = float(reference.max())
        cells = [(backend, precision) for backend in available_backends()
                 for precision in ("float64", "float32")]
        for backend, precision in cells:
            image = aerial(backend, precision)
            assert image.dtype == resolve_precision(precision).real_dtype
            tolerance = FLOAT32.aerial_rtol if precision == "float32" \
                else 1e-12
            assert np.abs(image - reference).max() / scale < tolerance, \
                (backend, precision)

    def test_engine_rejects_workers_with_backend_instance(self, kernels):
        """fft_workers cannot silently miss an already-built backend."""
        with pytest.raises(ValueError, match="fft_workers"):
            ExecutionEngine(kernels, fft_backend=get_backend("numpy"),
                            compute=ComputeConfig(fft_workers=4))

    def test_engine_preserves_policy_through_truncate(self):
        cache = KernelBankCache()
        engine = ExecutionEngine.for_optics(
            FINE, source=SOURCE, cache=cache,
            compute=ComputeConfig(fft_backend="numpy", precision="float32"))
        truncated = engine.truncate(2)
        assert truncated.order == 2
        assert truncated.precision is FLOAT32
        assert truncated.backend.name == "numpy"
        assert truncated.kernels.dtype == np.complex64


class TestEngineSpecComputePolicy:
    def test_spec_resolves_concrete_backend_and_precision(self):
        spec = EngineSpec(config=FINE, source=SOURCE)
        assert spec.compute.fft_backend in registered_backends()
        assert spec.compute.precision == "float64"

    def test_spec_roundtrips_backend_and_precision(self):
        spec = EngineSpec(config=FINE, source=SOURCE,
                          compute=ComputeConfig(fft_backend="numpy",
                                                fft_workers=3,
                                                precision="float32"))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.compute == ComputeConfig(fft_backend="numpy",
                                              fft_workers=3,
                                              precision="float32")
        assert clone.fingerprint() == spec.fingerprint()
        engine = clone.build(cache=KernelBankCache())
        assert engine.backend.name == "numpy"
        assert engine.precision is FLOAT32
        assert engine.kernels.dtype == np.complex64

    def test_policy_changes_fingerprint(self):
        numpy64 = ComputeConfig(fft_backend="numpy")
        base = EngineSpec(config=FINE, source=SOURCE, compute=numpy64)
        assert base.fingerprint() != \
            EngineSpec(config=FINE, source=SOURCE,
                       compute=dataclasses.replace(numpy64,
                                                   precision="float32")
                       ).fingerprint()

    def test_with_focus_keeps_policy(self):
        spec = EngineSpec(config=FINE, source=SOURCE,
                          compute=ComputeConfig(fft_backend="numpy",
                                                precision="float32"))
        assert spec.with_focus(40.0).compute == spec.compute

    def test_spec_resolution_ignores_worker_environment(self, monkeypatch):
        """Policy is frozen at construction: a worker's env cannot reinterpret it."""
        spec = EngineSpec(config=FINE, source=SOURCE)
        monkeypatch.setenv("REPRO_FFT_BACKEND", "warpdrive")
        monkeypatch.setenv("REPRO_PRECISION", "float16")
        # The spec already carries concrete names; building consults them,
        # not the (now bogus) environment.
        engine = spec.build(cache=KernelBankCache())
        assert engine.backend.name == spec.compute.fft_backend
        assert engine.precision.name == "float64"


class TestBackendProtocolCoverage:
    def test_numpy_backend_casts_single_precision_back_down(self):
        backend = get_backend("numpy")
        x32 = np.random.default_rng(0).random((4, 16, 16)).astype(np.float32)
        assert backend.fft2(x32).dtype == np.complex64
        assert backend.rfft2(x32).dtype == np.complex64
        spectrum = backend.rfft2(x32)
        assert backend.irfft2(spectrum, s=(16, 16)).dtype == np.float32
        assert backend.ifft2(backend.fft2(x32)).dtype == np.complex64

    @pytest.mark.parametrize("name", ["numpy", "scipy", TRANSFORMS_ONLY])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_no_transform_modifies_its_input(self, name, dtype):
        """The batched core transforms one reused scratch array block after
        block, so an in-place transform (multi-dimensional c2r is the classic
        one) would corrupt every tile after the first."""
        with transforms_only_registered():
            if name not in available_backends():
                pytest.skip(f"{name} does not construct here")
            backend = get_backend(name)
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
                        given, data, err_msg=f"{name}.{method}(norm={norm})")

    def test_all_available_backends_satisfy_protocol(self):
        rng = np.random.default_rng(1)
        x = rng.random((2, 12, 12))
        for name in available_backends():
            backend = get_backend(name)
            assert isinstance(backend, FFTBackend)
            roundtrip = backend.ifft2(backend.fft2(x, norm="ortho"), norm="ortho")
            np.testing.assert_allclose(np.real(roundtrip), x, atol=1e-10)
            half = backend.rfft2(x, norm="ortho")
            assert half.shape == (2, 12, 7)
            np.testing.assert_allclose(
                backend.irfft2(half, s=(12, 12), norm="ortho"), x, atol=1e-10)
