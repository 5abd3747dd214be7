"""Tests for the synthetic benchmark mask generators (repro.masks.generators)."""

import argparse
import hashlib

import numpy as np
import pytest

from repro.masks.generators import (
    DesignRules,
    ICCAD2013Generator,
    ISPDMetalGenerator,
    ISPDViaGenerator,
    GENERATORS,
    make_generator,
)
from repro.layout import synthesize_layout_mask

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
        densities = [(m > 0.5).mean() for m in masks]
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
        assert (mask > 0.5).mean() < 0.25

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
    """``make_generator`` is the one family -> generator map: the CLI's
    ``--family``, the synthetic layout and the Table II datasets read it."""

    def test_known_families(self):
        assert isinstance(make_generator("B1", TILE, PIXEL), ICCAD2013Generator)
        assert isinstance(make_generator("B2m", TILE, PIXEL), ISPDMetalGenerator)
        assert isinstance(make_generator("B2v", TILE, PIXEL), ISPDViaGenerator)
        for family, generator in GENERATORS.items():
            assert generator.family == family

    @pytest.mark.parametrize("family", ["B3", "b2m", "B2V", "B1opc"])
    def test_unknown_family_raises(self, family):
        with pytest.raises(ValueError) as excinfo:
            make_generator(family, TILE, PIXEL)
        assert str(excinfo.value) == (f"unknown layout family {family!r}; "
                                      "known families: B1, B2m, B2v")

    def test_cli_family_choices_are_the_maps_families(self):
        from repro.cli import build_parser

        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        choices = {name: action.choices
                   for name, subparser in subparsers.choices.items()
                   for action in subparser._actions
                   if action.dest == "family"}
        assert set(choices) == {"image-layout", "sweep-window"}
        for family_choices in choices.values():
            assert tuple(family_choices) == tuple(GENERATORS)

    @pytest.mark.parametrize("family, seed, sha256", [
        ("B1", 0, "308ce7f2e7e6d1e467b989fa91ee5c35b74fe592bbf5ebac4012c9e5c8366cb1"),
        ("B1", 1, "4ad7b1771ed68010f2133f48f606eac966cd6f1a1fa3d1b948a20cd602ac362f"),
        ("B2m", 0, "393ba91c39d064ab8f2249d019b22ab0523c3b127696b9591619709b354eefa8"),
        ("B2m", 1, "662d37291a89864d46c9f83b19ce20cd131ba9da47e222e4d07a1ded1a54d165"),
        ("B2v", 0, "96effa4b1912bc5c6ad7f5c10c49248b910f598898c81d005bed00f51c78482e"),
        ("B2v", 1, "bdb1d34716119c747a00158d78c2c1e6a17acd35109d1ebbb0ded8017a76a84f"),
    ])
    def test_synthetic_layout_pixels_are_pinned(self, family, seed, sha256):

        mask = synthesize_layout_mask(96, 160, 64, 8.0, family, seed)
        assert mask.dtype == np.float64 and mask.shape == (96, 160)
        assert hashlib.sha256(mask.tobytes()).hexdigest() == sha256
