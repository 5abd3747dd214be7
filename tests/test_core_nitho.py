"""Tests for the NithoModel (Algorithm 1) and the kernel-bank engine."""

import numpy as np
import pytest

from reference import reference_aerial
from repro.core import NithoConfig, NithoModel, NithoTrainer
from repro.engine import ExecutionEngine
from repro.metrics import aerial_metrics


class TestNithoConfig:
    def test_defaults_are_valid(self):
        config = NithoConfig()
        assert config.num_kernels > 0
        assert config.encoding == "rff"

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            NithoConfig(num_kernels=0)
        with pytest.raises(ValueError):
            NithoConfig(epochs=0)


class TestNithoModelStructure:
    def test_kernel_shape_from_resolution_limit(self, tiny_optics, quick_nitho_config):
        from repro.optics.kernel_dims import kernel_dimensions

        model = NithoModel(tiny_optics, quick_nitho_config)
        expected = kernel_dimensions(tiny_optics.tile_size_px, tiny_optics.tile_size_px,
                                     pixel_size_nm=tiny_optics.pixel_size_nm)
        assert model.kernel_shape == expected

    def test_kernel_shape_override(self, tiny_optics, quick_nitho_config):
        from dataclasses import replace

        config = replace(quick_nitho_config, kernel_shape_override=(9, 9))
        model = NithoModel(tiny_optics, config)
        assert model.kernel_shape == (9, 9)

    @pytest.mark.parametrize("window, grid", [((9, 9), (18, 18)),
                                              ((27, 27), (48, 48))],
                             ids=["band-limit-grid", "tile"])
    def test_loss_grid_is_the_engines_grid(self, tiny_optics, quick_nitho_config,
                                           tiny_masks, window, grid):
        """The loss is evaluated on the grid the engine's inverse transform
        runs on for a tile: the band-limit grid when it fits, else the tile."""
        from dataclasses import replace

        from reference import RecordingBackend

        config = replace(quick_nitho_config, kernel_shape_override=window)
        model = NithoModel(tiny_optics, config)
        assert model.loss_grid == grid
        engine = model.execution_engine()
        recorder = RecordingBackend(engine.backend.name)
        engine.backend = recorder
        engine.aerial(tiny_masks[0])
        assert [shape[-2:] for shape in recorder.shapes("ifft2")] == [grid]

    def test_wide_window_trains_on_the_tile(self, tiny_optics, quick_nitho_config,
                                            tiny_masks, tiny_aerials):
        """A window wider than half the tile has a band-limit grid (49 for
        25) larger than the 48 px tile: the loss is evaluated on the tile."""
        from dataclasses import replace

        config = replace(quick_nitho_config, kernel_shape_override=(25, 25))
        model = NithoModel(tiny_optics, config)
        tile = (tiny_optics.tile_size_px, tiny_optics.tile_size_px)
        assert model.loss_grid == tile
        np.testing.assert_array_equal(model.prepare_targets(tiny_aerials), tiny_aerials)
        assert model.forward_aerial(model.prepare_spectra(tiny_masks[:2])).shape \
            == (2, *tile)
        history = model.fit(tiny_masks[:2], tiny_aerials[:2], epochs=2)
        assert np.all(np.isfinite(history))

    def test_prepare_spectra_shape(self, tiny_optics, quick_nitho_config, tiny_masks):
        model = NithoModel(tiny_optics, quick_nitho_config)
        spectra = model.prepare_spectra(tiny_masks)
        assert spectra.shape == (len(tiny_masks), *model.kernel_shape)
        assert spectra.dtype == np.complex128

    def test_prepare_targets_resamples(self, tiny_optics, quick_nitho_config, tiny_aerials):
        from dataclasses import replace

        config = replace(quick_nitho_config, kernel_shape_override=(9, 9))
        model = NithoModel(tiny_optics, config)
        targets = model.prepare_targets(tiny_aerials)
        assert targets.shape == (len(tiny_aerials), *model.loss_grid) \
            == (len(tiny_aerials), 18, 18)

    def test_forward_aerial_shape_and_dtype(self, tiny_optics, quick_nitho_config, tiny_masks):
        model = NithoModel(tiny_optics, quick_nitho_config)
        spectra = model.prepare_spectra(tiny_masks[:2])
        prediction = model.forward_aerial(spectra)
        assert prediction.shape == (2, *model.loss_grid)
        assert prediction.dtype == np.float64
        assert np.all(prediction.data >= -1e-12)

    def test_num_parameters_and_size(self, tiny_optics, quick_nitho_config):
        model = NithoModel(tiny_optics, quick_nitho_config)
        assert model.num_parameters() > 0
        assert model.size_megabytes() == pytest.approx(model.num_parameters() * 4 / 2 ** 20)

    def test_real_valued_variant(self, tiny_optics, quick_nitho_config):
        from dataclasses import replace

        config = replace(quick_nitho_config, real_valued_mlp=True)
        model = NithoModel(tiny_optics, config)
        assert not model._encoded_coordinates.is_complex
        assert model.export_kernels().shape[0] == config.num_kernels


class TestNithoTraining:
    def test_training_reduces_loss(self, trained_tiny_nitho):
        history = trained_tiny_nitho.history
        assert history[-1] < 0.2 * history[0]

    def test_prediction_beats_trivial_baselines(self, trained_tiny_nitho, tiny_simulator,
                                                tiny_masks, tiny_aerials):
        """The learned kernels must beat both the all-zero and the mean-image predictors."""
        prediction = trained_tiny_nitho.predict_aerial(tiny_masks[0])
        target = tiny_aerials[0]
        model_mse = np.mean((prediction - target) ** 2)
        zero_mse = np.mean(target ** 2)
        mean_mse = np.mean((target - target.mean()) ** 2)
        assert model_mse < 0.2 * zero_mse
        assert model_mse < 0.2 * mean_mse

    def test_generalises_to_unseen_masks(self, trained_tiny_nitho, tiny_simulator):
        """Kernel regression generalises: evaluate on masks never seen in training."""
        from repro.masks import ICCAD2013Generator

        generator = ICCAD2013Generator(tiny_simulator.config.tile_size_px,
                                       tiny_simulator.config.pixel_size_nm, seed=999)
        unseen = generator.generate(2)
        golden = np.stack([tiny_simulator.aerial(m) for m in unseen])
        predicted = trained_tiny_nitho.predict_batch(unseen)
        metrics = aerial_metrics(golden, predicted)
        assert metrics["psnr"] > 20.0

    def test_generalises_to_other_mask_family(self, trained_tiny_nitho, tiny_simulator,
                                              tiny_via_masks):
        """The OOD property: training on B1-style masks, predicting via-style masks."""
        golden = np.stack([tiny_simulator.aerial(m) for m in tiny_via_masks[:2]])
        predicted = trained_tiny_nitho.predict_batch(tiny_via_masks[:2])
        assert aerial_metrics(golden, predicted)["psnr"] > 18.0

    def test_fit_validates_inputs(self, tiny_optics, quick_nitho_config, tiny_masks, tiny_aerials):
        model = NithoModel(tiny_optics, quick_nitho_config)
        with pytest.raises(ValueError):
            model.fit(tiny_masks[:2], tiny_aerials[:1])
        with pytest.raises(ValueError):
            model.fit(tiny_masks[:0], tiny_aerials[:0])

    def test_trainer_evaluate(self, trained_tiny_nitho, tiny_masks, tiny_aerials):
        trainer = NithoTrainer(trained_tiny_nitho)
        value = trainer.evaluate(tiny_masks, tiny_aerials)
        assert value >= 0.0
        assert value < 0.01

    def test_resist_prediction_binary(self, trained_tiny_nitho, tiny_masks):
        resist = trained_tiny_nitho.predict_resist(tiny_masks[0])
        assert set(np.unique(resist)).issubset({0, 1})

    def test_state_dict_roundtrip_preserves_predictions(self, trained_tiny_nitho, tiny_optics,
                                                        quick_nitho_config, tiny_masks):
        clone = NithoModel(tiny_optics, quick_nitho_config)
        clone.load_state_dict(trained_tiny_nitho.state_dict())
        np.testing.assert_allclose(clone.predict_aerial(tiny_masks[0]),
                                   trained_tiny_nitho.predict_aerial(tiny_masks[0]))

    def test_export_kernels_cached_and_refreshed(self, tiny_optics, quick_nitho_config,
                                                 tiny_masks, tiny_aerials):
        model = NithoModel(tiny_optics, quick_nitho_config)
        first = model.export_kernels()
        assert model.export_kernels() is first
        model.fit(tiny_masks[:2], tiny_aerials[:2], epochs=1)
        assert model.export_kernels() is not first


class TestKernelBankEngine:
    """A kernel bank — learned or golden — images through ``ExecutionEngine``
    (the cases of the former tile-size-checking veneer class)."""

    def test_requires_3d_kernels(self):
        with pytest.raises(ValueError):
            ExecutionEngine(np.zeros((4, 4)))

    def test_aerial_matches_nitho_fast_path(self, trained_tiny_nitho, tiny_masks):
        kernels = trained_tiny_nitho.export_kernels()
        expected = reference_aerial(tiny_masks[:1], kernels)[0]
        np.testing.assert_allclose(ExecutionEngine(kernels).aerial(tiny_masks[0]),
                                   expected, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(trained_tiny_nitho.predict_aerial(tiny_masks[0]),
                                   expected, rtol=1e-10, atol=1e-12)

    def test_golden_kernels_reproduce_simulator(self, tiny_simulator, tiny_masks):
        engine = ExecutionEngine(tiny_simulator.kernels.kernels,
                                  resist_threshold=tiny_simulator.config.resist_threshold)
        np.testing.assert_allclose(engine.aerial(tiny_masks[0]), tiny_simulator.aerial(tiny_masks[0]))
        np.testing.assert_array_equal(engine.resist(tiny_masks[0]), tiny_simulator.resist(tiny_masks[0]))

    def test_tile_size_validation(self, trained_tiny_nitho, tiny_masks):
        engine = ExecutionEngine(trained_tiny_nitho.export_kernels(), tile_size_px=8)
        with pytest.raises(ValueError, match="8 px tile"):
            engine.aerial(tiny_masks[0])
        with pytest.raises(ValueError, match="8 px tile"):
            engine.aerial_batch(tiny_masks[:2])
        with pytest.raises(ValueError, match="8 px tile"):
            engine.resist_batch(list(tiny_masks[:2]))

    def test_float32_bank(self, tiny_simulator, tiny_masks):
        from repro.backend import FLOAT32, ComputeConfig

        kernels = tiny_simulator.kernels.kernels
        tile = tiny_simulator.config.tile_size_px
        engine = ExecutionEngine(kernels.astype(np.complex64),
                                 tile_size_px=tile,
                                 compute=ComputeConfig(precision="float32"))
        assert engine.kernels.dtype == np.complex64
        aerial = engine.aerial(tiny_masks[0])
        assert aerial.dtype == np.float32
        expected = reference_aerial(np.asarray(tiny_masks[:1], dtype=float), kernels)[0]
        assert np.abs(aerial - expected).max() / expected.max() < FLOAT32.aerial_rtol
        with pytest.raises(ValueError, match=f"{tile} px tile"):
            engine.aerial(np.zeros((tile // 2, tile // 2), dtype=np.float32))

    def test_truncate(self, tiny_simulator):
        engine = ExecutionEngine(tiny_simulator.kernels.kernels)
        truncated = engine.truncate(2)
        assert truncated.order == 2
        with pytest.raises(ValueError):
            engine.truncate(0)

    def test_truncate_rejects_order_beyond_bank(self, tiny_simulator):
        """The seed silently returned the full bank for an over-long truncation."""
        engine = ExecutionEngine(tiny_simulator.kernels.kernels)
        with pytest.raises(ValueError, match="only holds"):
            engine.truncate(engine.order + 1)

    def test_kernel_energy_sorted_descending_for_golden(self, tiny_simulator):
        engine = ExecutionEngine(tiny_simulator.kernels.kernels)
        energy = engine.kernel_energy()
        assert np.all(np.diff(energy) <= 1e-9)

    def test_batch_helpers(self, tiny_simulator, tiny_masks):
        engine = ExecutionEngine(tiny_simulator.kernels.kernels)
        aerials = engine.aerial_batch(tiny_masks[:2])
        resists = engine.resist_batch(tiny_masks[:2])
        assert aerials.shape == (2, *tiny_masks[0].shape)
        assert resists.shape == (2, *tiny_masks[0].shape)
