"""Tests for the LithographySimulator facade and its presets."""

import dataclasses

import numpy as np
import pytest

from repro.optics import (
    AnnularSource,
    OpticsConfig,
    calibre_like_engine,
    lithosim_engine,
)


class TestOpticsConfig:
    def test_defaults_match_paper(self):
        config = OpticsConfig()
        assert config.wavelength_nm == 193.0
        assert config.numerical_aperture == 1.35

    def test_field_size(self):
        config = OpticsConfig(tile_size_px=128, pixel_size_nm=8.0)
        assert config.field_size_nm == 1024.0

    def test_replaced_tile_size_keeps_the_optics(self):
        config = dataclasses.replace(OpticsConfig(tile_size_px=64),
                                     tile_size_px=128)
        assert config.tile_size_px == 128
        assert config.wavelength_nm == 193.0
        with pytest.raises(ValueError):
            dataclasses.replace(config, tile_size_px=0)

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            OpticsConfig(wavelength_nm=-1.0)
        with pytest.raises(ValueError):
            OpticsConfig(tile_size_px=0)


class TestSimulator:
    def test_kernel_shape_follows_resolution_limit(self, tiny_simulator, tiny_optics):
        from repro.optics.kernel_dims import kernel_dimensions

        expected = kernel_dimensions(tiny_optics.tile_size_px, tiny_optics.tile_size_px,
                                     pixel_size_nm=tiny_optics.pixel_size_nm)
        assert tiny_simulator.kernel_shape == expected

    def test_kernels_are_cached(self, tiny_simulator):
        assert tiny_simulator.kernels is tiny_simulator.kernels

    def test_aerial_output_shape_and_range(self, tiny_simulator, tiny_masks):
        aerial = tiny_simulator.aerial(tiny_masks[0])
        assert aerial.shape == tiny_masks[0].shape
        assert aerial.min() >= -1e-12
        assert aerial.max() < 1.5

    def test_aerial_rejects_wrong_tile_size(self, tiny_simulator):
        with pytest.raises(ValueError):
            tiny_simulator.aerial(np.zeros((8, 8)))

    def test_aerial_rejects_non_2d(self, tiny_simulator, tiny_masks):
        with pytest.raises(ValueError):
            tiny_simulator.aerial(tiny_masks)

    def test_resist_is_binary(self, tiny_simulator, tiny_masks):
        resist = tiny_simulator.resist(tiny_masks[0])
        assert set(np.unique(resist)).issubset({0, 1})

    def test_simulate_returns_all_stages(self, tiny_simulator, tiny_masks):
        result = tiny_simulator.simulate(tiny_masks[0])
        assert set(result) == {"mask", "aerial", "resist"}
        assert result["aerial"].shape == tiny_masks[0].shape

    def test_socs_close_to_rigorous(self, tiny_simulator, tiny_masks):
        socs = tiny_simulator.aerial(tiny_masks[0])
        rigorous = tiny_simulator.aerial_rigorous(tiny_masks[0])
        assert np.max(np.abs(socs - rigorous)) / max(rigorous.max(), 1e-9) < 0.02

    def test_resist_covers_mask_features_roughly(self, tiny_simulator, tiny_masks):
        """Printed area should be the same order of magnitude as the drawn area."""
        mask = tiny_masks[0]
        resist = tiny_simulator.resist(mask)
        drawn = mask.sum()
        printed = resist.sum()
        assert printed > 0.2 * drawn
        assert printed < 5.0 * drawn


class TestPresets:
    def test_lithosim_engine_configuration(self):
        engine = lithosim_engine(tile_size_px=32, pixel_size_nm=16.0)
        assert engine.config.tile_size_px == 32
        assert engine.config.resist_threshold == pytest.approx(0.225)

    def test_calibre_engine_uses_annular_source(self):
        engine = calibre_like_engine(tile_size_px=32, pixel_size_nm=16.0)
        assert isinstance(engine.source, AnnularSource)

    def test_presets_give_different_images(self, tiny_masks):
        mask = tiny_masks[0][:32, :32]
        a = lithosim_engine(32, 16.0).aerial(mask)
        b = calibre_like_engine(32, 16.0).aerial(mask)
        assert not np.allclose(a, b)

