"""Tests for the synthetic benchmark mask generators (repro.masks.generators)."""

import numpy as np
import pytest

from repro.masks.generators import (
    DesignRules,
    ICCAD2013Generator,
    ISPDMetalGenerator,
    ISPDViaGenerator,
    make_generator,
)
from repro.layout.geometry import mask_density

TILE = 64
PIXEL = 16.0


class TestGeneratorBase:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ICCAD2013Generator(tile_size_px=0)
        with pytest.raises(ValueError):
            ICCAD2013Generator(pixel_size_nm=-1.0)

    def test_generate_count_validation(self):
        with pytest.raises(ValueError):
            ICCAD2013Generator(TILE, PIXEL).generate(0)

    def test_generate_shape_and_binarity(self):
        masks = ICCAD2013Generator(TILE, PIXEL, seed=0).generate(3)
        assert masks.shape == (3, TILE, TILE)
        assert set(np.unique(masks)).issubset({0.0, 1.0})

    def test_seeded_reproducibility(self):
        a = ICCAD2013Generator(TILE, PIXEL, seed=5).generate(2)
        b = ICCAD2013Generator(TILE, PIXEL, seed=5).generate(2)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ICCAD2013Generator(TILE, PIXEL, seed=1).sample()
        b = ICCAD2013Generator(TILE, PIXEL, seed=2).sample()
        assert not np.array_equal(a, b)


class TestICCAD2013Generator:
    def test_density_in_plausible_range(self):
        masks = ICCAD2013Generator(TILE, PIXEL, seed=3).generate(6)
        densities = [mask_density(m) for m in masks]
        assert all(0.005 < d < 0.5 for d in densities)

    def test_design_rule_validation(self):
        with pytest.raises(ValueError):
            DesignRules(min_width=0.0)

    def test_feature_count_validation(self):
        with pytest.raises(ValueError):
            ICCAD2013Generator(TILE, PIXEL, min_features=5, max_features=3)

    def test_family_label(self):
        assert ICCAD2013Generator(TILE, PIXEL).family == "B1"


class TestISPDMetalGenerator:
    def test_produces_track_like_patterns(self):
        mask = ISPDMetalGenerator(TILE, PIXEL, seed=1).sample()
        # Routed metal should contain long runs: the longest row or column run
        # must span an appreciable fraction of the tile.
        row_run = max(int(row.sum()) for row in mask)
        col_run = max(int(col.sum()) for col in mask.T)
        assert max(row_run, col_run) > TILE // 4

    def test_density_higher_than_contact_layer(self):
        metal = ISPDMetalGenerator(TILE, PIXEL, seed=2).generate(4)
        vias = ISPDViaGenerator(TILE, PIXEL, seed=2).generate(4)
        assert metal.mean() > vias.mean()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ISPDMetalGenerator(TILE, PIXEL, track_pitch_nm=40.0, wire_width_nm=48.0)
        with pytest.raises(ValueError):
            ISPDMetalGenerator(TILE, PIXEL, fill_probability=0.0)

    def test_family_label(self):
        assert ISPDMetalGenerator(TILE, PIXEL).family == "B2m"


class TestISPDViaGenerator:
    def test_never_empty(self):
        generator = ISPDViaGenerator(TILE, PIXEL, seed=4, occupancy=0.01)
        for _ in range(5):
            assert generator.sample().sum() > 0

    def test_vias_are_small_isolated_features(self):
        mask = ISPDViaGenerator(TILE, PIXEL, seed=0, occupancy=0.3).sample()
        # via cuts are small: the density stays low
        assert mask_density(mask) < 0.25

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ISPDViaGenerator(TILE, PIXEL, grid_pitch_nm=50.0, via_size_nm=56.0)
        with pytest.raises(ValueError):
            ISPDViaGenerator(TILE, PIXEL, occupancy=1.5)

    def test_family_label(self):
        assert ISPDViaGenerator(TILE, PIXEL).family == "B2v"


class TestDistributionShift:
    def test_families_have_distinct_spectra(self):
        """The three families must be statistically distinguishable (the premise of Fig. 2a)."""
        def mean_spectrum(masks):
            spectra = [np.abs(np.fft.fftshift(np.fft.fft2(m, norm="ortho"))) for m in masks]
            return np.mean(spectra, axis=0)

        b1 = mean_spectrum(ICCAD2013Generator(TILE, PIXEL, seed=0).generate(6))
        b2m = mean_spectrum(ISPDMetalGenerator(TILE, PIXEL, seed=0).generate(6))
        b2v = mean_spectrum(ISPDViaGenerator(TILE, PIXEL, seed=0).generate(6))

        def distance(a, b):
            return np.linalg.norm(a - b) / np.linalg.norm(a + b)

        assert distance(b1, b2m) > 0.05
        assert distance(b1, b2v) > 0.05
        assert distance(b2m, b2v) > 0.05


class TestFactory:
    def test_known_families(self):
        assert isinstance(make_generator("B1", TILE, PIXEL), ICCAD2013Generator)
        assert isinstance(make_generator("b2m", TILE, PIXEL), ISPDMetalGenerator)
        assert isinstance(make_generator("B2V", TILE, PIXEL), ISPDViaGenerator)

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError):
            make_generator("B3", TILE, PIXEL)
