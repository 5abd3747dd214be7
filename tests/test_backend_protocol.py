"""Tests for the shape of the backend protocol (repro.backend.fft.FFTBackend).

Pinned guarantees:

* **four transforms are a backend**: a subclass that defines only ``name``
  + ``fft2`` / ``ifft2`` / ``rfft2`` / ``irfft2`` — the shape of the
  benchmark's FFT probe — drives ``mask_spectrum``, the batched core, an
  engine and an executor, changing no output bit against the backend it
  forwards to (hypothesis-pinned across precisions and both block bodies),
* **the protocol is transforms**: ``FFTBackend`` carries no array
  namespace, residency flag, transfer counters or one-thread sibling,
* **the share rule**: a call spends ``min(workers, tiles)`` shares on any
  backend, and a transforms-only subclass (``workers`` ``None``) one,
* ``--precision auto`` resolves deterministically everywhere an engine is
  built (constructor, ``for_optics``, ``EngineSpec``) and never leaks the
  string ``"auto"`` into a worker-bound spec.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import (
    BACKEND_CELLS,
    RecordingBackend,
    assert_ran_on_shares,
    cell_backend,
    threads_seen,
    transforms_only_engines,
)
from repro.backend import (
    FLOAT32,
    FLOAT64,
    ComputeConfig,
    FFTBackend,
    NumpyFFTBackend,
    autotune_precision,
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
from repro.engine import tile_cache as tile_cache_module
from repro.engine.batched import batched_aerial_from_kernels, share_threads
from repro.engine.streaming import open_layout_dir
from repro.layout import load_layout_source
from repro.optics import OpticsConfig
from repro.optics.aerial import mask_spectrum

HIER4 = os.path.join(os.path.dirname(__file__), "data", "hier4.gds")

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)

RNG = np.random.default_rng(7)
KERNELS = (RNG.standard_normal((3, 9, 9))
           + 1j * RNG.standard_normal((3, 9, 9)))

NO_CACHE = ComputeConfig(tile_cache=False)

binary_masks = arrays(np.float64, (4, 32, 32),
                      elements=st.sampled_from([0.0, 1.0]))


# --------------------------------------------------------------------------- #
# four transforms are a backend
# --------------------------------------------------------------------------- #
class TestTransformsOnlyBackend:
    @pytest.mark.parametrize("workers", [1, 3])
    @settings(max_examples=10, deadline=None)
    @given(masks=binary_masks,
           precision=st.sampled_from(["float64", "float32"]),
           tile=st.sampled_from([32, 16]))
    def test_batched_aerial_bit_for_bit(self, workers, masks, precision,
                                        tile):
        # 32 px fits the 18 px band-limit grid of the 9x9 bank (the
        # band-limited body); 16 px does not (the direct body).  The inner
        # backend shares the tiles out over its workers; the subclass has
        # no budget and images them as one share.
        backend = get_backend(workers)
        policy = resolve_precision(precision)
        masks = policy.as_real(masks[:, :tile, :tile])
        kernels = KERNELS.astype(policy.complex_dtype)
        with threads_seen() as seen:
            reference = batched_aerial_from_kernels(
                masks, kernels, backend=backend, precision=policy)
        if workers > 1:
            assert_ran_on_shares(seen)
        probe = RecordingBackend(workers)
        result = batched_aerial_from_kernels(
            masks, kernels, backend=probe, precision=policy)
        assert probe.calls
        assert result.dtype == reference.dtype
        np.testing.assert_array_equal(reference, result)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @settings(max_examples=10, deadline=None)
    @given(masks=binary_masks)
    def test_mask_spectrum_bit_for_bit(self, dtype, masks):
        # numpy transforms a float32 mask in single precision; the
        # subclass's inherited pruned transform must keep that too.
        masks = masks.astype(dtype)
        reference = mask_spectrum(masks, (9, 9), backend=get_backend())
        probe = RecordingBackend()
        spectrum = mask_spectrum(masks, (9, 9), backend=probe)
        assert probe.calls
        assert isinstance(spectrum, np.ndarray)
        assert spectrum.dtype == reference.dtype == np.result_type(
            masks.dtype, np.complex64)
        np.testing.assert_array_equal(reference, spectrum)

    @pytest.mark.parametrize("precision", ["float64", "float32", "auto"])
    def test_a_transforms_only_subclass_keeps_the_spec_identity(
            self, precision):
        """The engine a spec builds may transform through a transforms-only
        subclass (``auto`` precision builds an engine inside the spec):
        its bits and the spec's fingerprint are the numpy backend's."""
        masks = (RNG.random((3, 32, 32)) > 0.5).astype(float)
        compute = ComputeConfig(fft_workers=2, precision=precision,
                                tile_cache=False)
        plain = EngineSpec(config=CONFIG, compute=compute)
        with transforms_only_engines() as recorder:
            spec = EngineSpec(config=CONFIG, compute=compute)
            assert spec.fingerprint() == plain.fingerprint()
            engine = spec.build()
            assert engine.backend is recorder
            recorder.calls.clear()
            result = engine.aerial_batch(masks)
            assert recorder.calls
        np.testing.assert_array_equal(result,
                                      plain.build().aerial_batch(masks))

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
# the protocol is transforms
# --------------------------------------------------------------------------- #
class TestProtocolShape:
    def test_no_backend_carries_an_array_namespace(self):
        """Host arrays are numpy arrays: no backend — base class, a backend
        cell or a transforms-only subclass — offers a namespace or a
        one-thread sibling."""
        backends = [FFTBackend] + [cell_backend(cell)
                                   for cell in BACKEND_CELLS]
        for backend in backends:
            for attribute in ("device", "is_resident", "is_device_array",
                              "asarray", "to_host", "empty_host",
                              "transfer_stats", "abs2_sum",
                              "single_threaded"):
                assert not hasattr(backend, attribute), (backend, attribute)

    def test_every_backend_cell_is_an_fft_backend(self):
        for cell in BACKEND_CELLS:
            assert isinstance(cell_backend(cell), FFTBackend), cell


# --------------------------------------------------------------------------- #
# the share rule
# --------------------------------------------------------------------------- #
class TestShareRule:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_a_budget_is_spent_on_shares_and_never_more(self, workers):
        backend = NumpyFFTBackend(workers)
        for count in (0, 1, 2, 4, 8):
            assert share_threads(backend, count) == max(1, min(workers,
                                                               count))

    def test_a_transforms_only_subclass_keeps_one_share(self):
        probe = RecordingBackend(3)
        assert probe.workers is None
        assert [share_threads(probe, count) for count in (0, 1, 4)] \
            == [1, 1, 1]


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
        assert not is_auto_precision(None)

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
