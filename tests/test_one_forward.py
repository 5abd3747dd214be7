"""One SOCS forward, one bank owner, identities that do not move.

Pinned guarantees:

* the golden simulator, an ``EngineSpec`` and a direct caller reach their
  engine by one road — ``ExecutionEngine.for_optics`` — so against one
  kernel cache they cost one decomposition in total and hold the same bank,
  whatever precision the spec and the direct caller ask for,

* every public "mask -> aerial image" entry point — golden simulator or
  learned model, one tile or a batch — runs the batched band-limited core:
  on a 256 px / 4 nm tile each issues the small inverse transform on the
  ``band_limit_grid(n, m)`` and never a full-size one, and one tile is bit
  for bit a batch of one,
* ``evaluate_on_dataset`` images each test tile once (one batched call),
* ``ExecutionEngine.kernel_fingerprint()`` (tile-cache key) and
  ``EngineSpec.fingerprint()`` (engine memo + campaign-store identity) are
  byte-for-byte the strings recorded when the forward's bits last moved
  (``FORWARD_REVISION``), so tile-cache entries and campaign stores persisted
  since then stay hits / resumable.
"""

import dataclasses
import json

import numpy as np
import pytest

from reference import RecordingBackend, band_limited_blocks
from repro.backend import ComputeConfig
from repro.core import NithoConfig, NithoModel
from repro.engine import EngineSpec, ExecutionEngine, KernelBankCache
from repro.engine import cache as cache_module
from repro.engine.batched import FORWARD_REVISION, band_limit_grid
from repro.experiments.evaluation import evaluate_on_dataset
from repro.masks.datasets import LithoDataset
from repro.metrics import aerial_metrics, resist_metrics
from repro.optics import LithographySimulator, OpticsConfig
from repro.optics.pupil import Pupil
from repro.optics.source import CircularSource
from repro.sweep import (
    CampaignIdentityError,
    CampaignStore,
    FocusExposureGrid,
    ProcessWindowSweep,
)

TILE = 256
# A narrow source and a short bank keep the 29x29-window TCC cheap (~0.5 s).
PRODUCT = OpticsConfig(tile_size_px=TILE, pixel_size_nm=4.0, max_socs_order=4)


@pytest.fixture(scope="module")
def mask():
    return (np.random.default_rng(17).random((TILE, TILE)) > 0.7).astype(float)


@pytest.fixture(scope="module")
def simulator():
    return LithographySimulator(PRODUCT, source=CircularSource(sigma=0.3))


@pytest.fixture(scope="module")
def model():
    return NithoModel(PRODUCT, NithoConfig(num_kernels=3, hidden_dim=8,
                                           num_hidden_blocks=1))


def _record(engine, call):
    """Run ``call`` with ``engine`` imaging through a fresh recorder."""
    recorder = RecordingBackend()
    original, engine.backend = engine.backend, recorder
    try:
        result = call()
    finally:
        engine.backend = original
    return recorder, result


class TestOneForward:
    def _assert_band_limited(self, recorder, engine, batch=1):
        grid = band_limit_grid(*engine.kernel_shape)
        assert grid == (60, 60)  # 29 x 29 window: not 2n = 58 = 2 x prime 29
        blocks = band_limited_blocks(batch, engine.kernels.shape, (TILE, TILE))
        assert recorder.shapes("ifft2") == [(rows, engine.order) + grid
                                            for rows in blocks]
        assert recorder.shapes("rfft2") == [
            shape for rows in blocks for shape in ((rows, TILE, TILE),
                                                   (rows,) + grid)]
        assert recorder.shapes("irfft2") == [(rows, TILE, TILE)
                                             for rows in blocks]
        assert recorder.shapes("fft2") == []

    def test_simulator_entry_points(self, simulator, mask):
        engine = simulator.engine
        recorder, single = _record(engine, lambda: simulator.aerial(mask))
        self._assert_band_limited(recorder, engine)
        recorder, batched = _record(
            engine, lambda: simulator.aerial_batch(np.stack([mask, mask])))
        self._assert_band_limited(recorder, engine, batch=2)
        recorder, resist = _record(engine, lambda: simulator.resist(mask))
        self._assert_band_limited(recorder, engine)
        np.testing.assert_array_equal(single, batched[0])
        np.testing.assert_array_equal(single,
                                      simulator.aerial_batch(mask[None])[0])
        np.testing.assert_array_equal(resist,
                                      simulator.resist_model.develop(single))

    def test_model_entry_points(self, model, mask):
        engine = model.execution_engine()
        recorder, single = _record(engine, lambda: model.predict_aerial(mask))
        self._assert_band_limited(recorder, engine)
        recorder, batched = _record(
            engine, lambda: model.predict_batch(np.stack([mask, mask])))
        self._assert_band_limited(recorder, engine, batch=2)
        np.testing.assert_array_equal(single, batched[0])
        np.testing.assert_array_equal(model.predict_resist(mask),
                                      model.resist_model.develop(single))

    def test_engine_single_tile_is_a_batch_of_one(self, simulator, mask):
        engine = ExecutionEngine(simulator.kernels.kernels, tile_size_px=TILE)
        recorder, single = _record(engine, lambda: engine.aerial(mask))
        self._assert_band_limited(recorder, engine)
        np.testing.assert_array_equal(single, engine.aerial_batch(mask[None])[0])
        np.testing.assert_array_equal(
            engine.resist(mask),
            engine.resist_model.develop(engine.aerial_batch(mask[None]))[0])


class TestEvaluationImagesEachTileOnce:
    def test_one_batched_forward_per_dataset(self, monkeypatch, tiny_optics,
                                             trained_tiny_nitho, tiny_masks,
                                             tiny_aerials, tiny_resists):
        dataset = LithoDataset(
            name="pin", train_masks=tiny_masks[:1],
            train_aerials=tiny_aerials[:1], train_resists=tiny_resists[:1],
            test_masks=tiny_masks, test_aerials=tiny_aerials,
            test_resists=tiny_resists,
            pixel_size_nm=tiny_optics.pixel_size_nm, litho_engine="tiny")
        calls = []
        forward = ExecutionEngine.aerial_batch

        def spy(self, masks, *args, **kwargs):
            calls.append(len(masks))
            return forward(self, masks, *args, **kwargs)

        monkeypatch.setattr(ExecutionEngine, "aerial_batch", spy)
        metrics = evaluate_on_dataset(trained_tiny_nitho, dataset)
        assert calls == [len(tiny_masks)]

        # The per-tile evaluation this replaced, spelled out.
        aerials = np.stack([trained_tiny_nitho.predict_aerial(tile)
                            for tile in tiny_masks])
        resists = np.stack([trained_tiny_nitho.predict_resist(tile)
                            for tile in tiny_masks])
        expected = {**aerial_metrics(tiny_aerials, aerials),
                    **resist_metrics(tiny_resists, resists)}
        assert metrics.keys() == expected.keys()
        for key, value in expected.items():
            assert metrics[key] == pytest.approx(value, abs=1e-10), key


@pytest.mark.parametrize("precision", [None, "float32", "auto"])
def test_three_front_doors_one_road(monkeypatch, precision):
    shared = KernelBankCache()
    monkeypatch.setattr(cache_module, "_default_cache", shared)
    config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
    compute = ComputeConfig(precision=precision)

    golden = LithographySimulator(config).engine
    spec = EngineSpec(config=config, compute=compute)
    others = [spec.build(), ExecutionEngine.for_optics(config,
                                                       compute=compute)]

    assert shared.stats.decompositions == 1
    assert golden.precision.name == "float64"
    if precision != "auto":
        assert spec.compute.precision == (precision or "float64")
    for engine in others:
        assert engine.precision.name == spec.compute.precision
        assert np.array_equal(
            engine.kernels,
            golden.kernels.astype(engine.precision.complex_dtype))


class TestPersistedIdentities:
    """Values recorded when numpy became the one FFT library
    (``FORWARD_REVISION = "band=fast-grid|bank=packed-real-field|fft=numpy"``,
    and the spec fingerprint lost its ``|backend=…|workers=…``; they read
    ``…|bank=packed-real-field|backend=numpy|workers=None`` and
    ``79bb80f8…`` / ``f0e73f81…`` since the golden bank became packed
    real-field kernel pairs, ``band=fast-grid`` with a
    ``|chunk=268435456`` fossil before that).  The optics-fingerprint
    prefixes are older and do not move with the forward; the bank-cache key
    — the ``kernels-*.npz`` names — names how the bank was built."""

    CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
    SOURCE = CircularSource(sigma=0.6)
    COMPUTE = ComputeConfig(precision="float64")
    SPEC_FINGERPRINT = (
        "b2be813f119f3be7ff23adc3957f7114372de2f4|order=8|band=fast-grid"
        "|bank=packed-real-field|fft=numpy|prec=float64")
    REFOCUSED_FINGERPRINT = (
        "b98f51a438ffb53eb808e9f546aab3a3611b80b9|order=8|band=fast-grid"
        "|bank=packed-real-field|fft=numpy|prec=float64")
    WORKERS_FLOAT32_FINGERPRINT = (
        "b2be813f119f3be7ff23adc3957f7114372de2f4|order=8|band=fast-grid"
        "|bank=packed-real-field|fft=numpy|prec=float32")
    #: What the default spec's fingerprint read before numpy became the one
    #: FFT library (scipy was ``auto``'s choice).
    SCIPY_FINGERPRINT = (
        "b2be813f119f3be7ff23adc3957f7114372de2f4|order=8|band=fast-grid"
        "|bank=packed-real-field|backend=scipy|workers=None|prec=float64")
    BANK = np.arange(3 * 5 * 5, dtype=float).reshape(3, 5, 5) * (1 + 0.5j)
    BANK_FINGERPRINTS = {"float64": "b32a50b017a68a6541f07c1e75f53d93002383cd",
                         "float32": "b1ff834c6b1051ce6d433f96b6095d2f7d52c1b6"}
    BANK_FILE = "kernels-0671f6afbd9850daae41ad285b9863a8c3422323.npz"

    def test_engine_spec_fingerprint_is_unchanged(self):
        spec = EngineSpec(config=self.CONFIG, source=self.SOURCE,
                          compute=self.COMPUTE)
        assert spec.fingerprint() == self.SPEC_FINGERPRINT
        assert spec.with_focus(40.0).fingerprint() == self.REFOCUSED_FINGERPRINT
        assert EngineSpec(
            config=self.CONFIG, source=self.SOURCE,
            compute=dataclasses.replace(self.COMPUTE, fft_workers=2,
                                        precision="float32"),
        ).fingerprint() == self.WORKERS_FLOAT32_FINGERPRINT

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_kernel_fingerprint_is_unchanged(self, precision):
        engine = ExecutionEngine(self.BANK,
                                 compute=ComputeConfig(precision=precision))
        assert engine.kernel_fingerprint() == self.BANK_FINGERPRINTS[precision]

    def test_kernel_bank_file_name_is_unchanged(self, tmp_path):
        KernelBankCache(cache_dir=str(tmp_path)).get_kernels(
            self.CONFIG, self.SOURCE, Pupil())
        assert [path.name for path in tmp_path.iterdir()] == [self.BANK_FILE]

    def _store_recorded_under(self, fingerprint, root):
        """Store one of two conditions under ``fingerprint`` (as the checkout
        that formatted it wrote it); returns the sweep's run on that store."""
        layout = np.zeros((32, 32))
        layout[4:-4, 12:20] = 1.0
        grid = FocusExposureGrid((0.0,), (0.9, 1.0))
        identity, _ = CampaignStore.campaign_identity(
            layout, grid.focus_values_nm, grid.dose_values, 0.25, fingerprint)
        store = CampaignStore(str(root))
        store.begin(identity)
        store.record(0.0, 0.9, cd_nm=61.0)
        with open(store.manifest_path, encoding="utf-8") as handle:
            assert json.load(handle)["campaign"]["optics_fingerprint"] \
                == fingerprint
        sweep = ProcessWindowSweep(self.CONFIG, source=self.SOURCE,
                                   compute=self.COMPUTE)
        return lambda: sweep.run(layout, grid=grid, tolerance=0.25,
                                 store=str(root))

    def test_store_with_the_recorded_identity_resumes(self, tmp_path):
        resumed = self._store_recorded_under(self.SPEC_FINGERPRINT,
                                             tmp_path / "campaign")()
        assert resumed.skipped_conditions == 1
        assert resumed.computed_conditions == 1

    @pytest.mark.parametrize("older", ["chunk", "scipy"])
    def test_store_of_an_older_forward_is_refused_untouched(self, tmp_path,
                                                            older):
        """Rounding-level old and new conditions never share one store."""
        older = self.SCIPY_FINGERPRINT if older == "scipy" else \
            self.SPEC_FINGERPRINT.replace(FORWARD_REVISION,
                                          "band=fast-grid|chunk=268435456")
        assert older != self.SPEC_FINGERPRINT
        root = tmp_path / "campaign"
        run = self._store_recorded_under(older, root)
        before = {path.name: path.read_bytes() for path in root.iterdir()}
        with pytest.raises(CampaignIdentityError, match="different campaign"):
            run()
        assert {path.name: path.read_bytes()
                for path in root.iterdir()} == before
