"""Tests for aerial-image formation, the Abbe reference path and the resist models.

The key physics check lives here: the SOCS kernel path and the rigorous Abbe
source-point summation must produce the same aerial image.
"""

import dataclasses

import numpy as np
import pytest

from repro.optics import (
    ConstantThresholdResist,
    LithographySimulator,
    OpticsConfig,
    abbe_aerial,
    mask_spectrum,
)
from repro.engine import ExecutionEngine
from repro.optics.pupil import Pupil
from repro.optics.socs import decompose_tcc
from repro.optics.grid import make_grid
from repro.optics.source import CircularSource, PixelatedSource, make_source
from repro.optics.tcc import compute_tcc

WAVELENGTH = 193.0
NA = 1.35
TILE = 40
PIXEL = 24.0
FIELD = TILE * PIXEL
# The SOCS/Abbe equivalence only holds when the kernel window covers the full
# intensity band limit 2 NA / lambda, i.e. the Eq. (10) dimension.
from repro.optics.kernel_dims import kernel_dimensions  # noqa: E402

KERNEL_SHAPE = kernel_dimensions(TILE, TILE, WAVELENGTH, NA, PIXEL)


@pytest.fixture(scope="module")
def socs_kernels():
    tcc = compute_tcc(CircularSource(sigma=0.6), Pupil(), KERNEL_SHAPE,
                      field_size_nm=FIELD, wavelength_nm=WAVELENGTH, numerical_aperture=NA)
    return decompose_tcc(tcc, max_order=None, energy_tolerance=1e-12)


def socs_aerial(mask, kernels):
    """One tile through the product's SOCS forward (an uncalibrated bank)."""
    return ExecutionEngine(kernels).aerial(mask)


@pytest.fixture(scope="module")
def sample_mask():
    mask = np.zeros((TILE, TILE))
    mask[10:30, 14:20] = 1.0   # vertical bar
    mask[18:22, 8:32] = 1.0    # horizontal bar crossing it
    return mask


class TestMaskSpectrum:
    def test_full_spectrum_shape(self, sample_mask):
        assert mask_spectrum(sample_mask).shape == (TILE, TILE)

    def test_cropped_spectrum_shape(self, sample_mask):
        assert mask_spectrum(sample_mask, KERNEL_SHAPE).shape == KERNEL_SHAPE

    def test_dc_value_is_mask_mean_scaled(self, sample_mask):
        spectrum = mask_spectrum(sample_mask)
        dc = spectrum[TILE // 2, TILE // 2]
        assert dc.real == pytest.approx(sample_mask.sum() / TILE, rel=1e-9)
        assert dc.imag == pytest.approx(0.0, abs=1e-9)


class TestAerialFromKernels:
    def test_output_is_real_non_negative(self, socs_kernels, sample_mask):
        aerial = socs_aerial(sample_mask, socs_kernels.kernels)
        assert aerial.shape == sample_mask.shape
        assert np.all(aerial >= -1e-12)
        assert not np.iscomplexobj(aerial)

    def test_empty_mask_gives_zero_intensity(self, socs_kernels):
        aerial = socs_aerial(np.zeros((TILE, TILE)), socs_kernels.kernels)
        np.testing.assert_allclose(aerial, 0.0, atol=1e-15)

    def test_clear_field_is_about_one(self, socs_kernels):
        """An all-ones mask is pure DC: a spatially constant intensity equal to
        the DC-sample energy of the bank, ~1 for a normalised source."""
        kernels = socs_kernels.kernels
        n, m = KERNEL_SHAPE
        dc_energy = np.sum(np.abs(kernels[:, n // 2, m // 2]) ** 2)
        aerial = socs_aerial(np.ones((TILE, TILE)), kernels)
        np.testing.assert_allclose(aerial, dc_energy, rtol=1e-12, atol=1e-14)
        assert dc_energy == pytest.approx(1.0, abs=0.02)

    def test_intensity_peaks_inside_features(self, socs_kernels, sample_mask):
        aerial = socs_aerial(sample_mask, socs_kernels.kernels)
        inside = aerial[sample_mask > 0.5].mean()
        outside = aerial[sample_mask < 0.5].mean()
        assert inside > 3 * outside

    def test_invalid_inputs_raise(self, socs_kernels):
        with pytest.raises(ValueError):
            socs_aerial(np.zeros((4, TILE, TILE)), socs_kernels.kernels)
        with pytest.raises(ValueError):
            socs_aerial(np.zeros((TILE, TILE)), socs_kernels.kernels[0])

    def test_linearity_in_intensity_is_not_assumed(self, socs_kernels, sample_mask):
        """Partially coherent imaging is not linear in the mask: I(2M) != 2 I(M)."""
        aerial_one = socs_aerial(sample_mask, socs_kernels.kernels)
        aerial_two = socs_aerial(2.0 * sample_mask, socs_kernels.kernels)
        assert not np.allclose(aerial_two, 2.0 * aerial_one)
        np.testing.assert_allclose(aerial_two, 4.0 * aerial_one, rtol=1e-6)

    def test_translation_covariance(self, socs_kernels, sample_mask):
        """Shifting the mask shifts the aerial image (cyclically) by the same amount."""
        aerial = socs_aerial(sample_mask, socs_kernels.kernels)
        shifted_mask = np.roll(sample_mask, (5, -3), axis=(0, 1))
        shifted_aerial = socs_aerial(shifted_mask, socs_kernels.kernels)
        np.testing.assert_allclose(shifted_aerial, np.roll(aerial, (5, -3), axis=(0, 1)), atol=1e-9)


class TestSOCSEqualsAbbe:
    def test_socs_matches_rigorous_abbe(self, socs_kernels, sample_mask):
        """The central physics validation: kernel imaging == direct source-point summation."""
        socs = socs_aerial(sample_mask, socs_kernels.kernels)
        abbe = abbe_aerial(sample_mask, CircularSource(sigma=0.6), Pupil(),
                           field_size_nm=FIELD, wavelength_nm=WAVELENGTH,
                           numerical_aperture=NA)
        assert np.max(np.abs(socs - abbe)) / abbe.max() < 5e-3

    def test_truncated_socs_is_close_but_not_exact(self, socs_kernels, sample_mask):
        truncated = socs_kernels.kernels[:4]
        socs = socs_aerial(sample_mask, truncated)
        abbe = abbe_aerial(sample_mask, CircularSource(sigma=0.6), Pupil(),
                           field_size_nm=FIELD, wavelength_nm=WAVELENGTH,
                           numerical_aperture=NA)
        relative = np.max(np.abs(socs - abbe)) / abbe.max()
        assert relative < 0.2
        assert relative > 1e-6

    @pytest.mark.parametrize("defocus_nm", [0.0, 40.0])
    @pytest.mark.parametrize("tile,source", [
        (tile, source) for tile in ("64px-8nm", "256px-1nm")
        for source in ("circular", "annular", "dipole", "quadrupole")]
        + [("256px-1nm", "pixelated")])
    def test_full_rank_engine_is_the_abbe_oracle(self, tile, source,
                                                 defocus_nm):
        """The first rows of the physics error budget (ROADMAP item 2): with
        no SOCS truncation (``max_socs_order=None``) the production forward
        — packed bank, band-limit grid, ``numpy.fft`` — is the rigorous
        Abbe source-point sum to 1e-12, in and out of focus, on a 64 px /
        8 nm tile and on the production ``OpticsConfig()`` tile (256 px /
        1 nm, a 7 x 7 source lattice): for every named illuminator, and
        there for a free-form one too (uniform weights on the 9 lattice
        samples with sigma <= 1)."""
        optics = OpticsConfig(max_socs_order=None)
        if tile == "64px-8nm":
            optics = dataclasses.replace(optics, tile_size_px=64,
                                         pixel_size_nm=8.0)
        if source == "pixelated":
            lattice = make_grid(7, 7, optics.field_size_nm,
                                optics.wavelength_nm,
                                optics.numerical_aperture).radius <= 1.0
            assert np.count_nonzero(lattice) == 9
            illuminator = PixelatedSource(lattice * 1.0)
        else:
            illuminator = make_source(source)
        size = optics.tile_size_px
        mask = (np.random.default_rng(0).random((size, size)) > 0.7) * 1.0
        images = {}
        for focus in (0.0, defocus_nm):
            simulator = LithographySimulator(
                dataclasses.replace(optics, defocus_nm=focus),
                source=illuminator)
            images[focus] = simulator.aerial(mask)
            rigorous = simulator.aerial_rigorous(mask)
            assert np.abs(images[focus] - rigorous).max() <= 1e-12
        # The defocused cell images another aerial: the pupil's phase is on.
        assert (defocus_nm == 0.0) == np.array_equal(images[0.0],
                                                     images[defocus_nm])

    def test_abbe_rejects_non_2d_masks(self):
        with pytest.raises(ValueError):
            abbe_aerial(np.zeros((2, 4, 4)), CircularSource(0.5), Pupil(), FIELD, WAVELENGTH, NA)


class TestResistModels:
    def test_constant_threshold_binary_output(self, socs_kernels, sample_mask):
        aerial = socs_aerial(sample_mask, socs_kernels.kernels)
        resist = ConstantThresholdResist(0.3).develop(aerial)
        assert set(np.unique(resist)).issubset({0, 1})

    def test_lower_threshold_prints_more(self, socs_kernels, sample_mask):
        aerial = socs_aerial(sample_mask, socs_kernels.kernels)
        low = ConstantThresholdResist(0.1).develop(aerial).sum()
        high = ConstantThresholdResist(0.5).develop(aerial).sum()
        assert low >= high

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ConstantThresholdResist(0.0)

    def test_develop_prints_exactly_above_threshold(self, socs_kernels,
                                                    sample_mask):
        aerial = socs_aerial(sample_mask, socs_kernels.kernels)
        resist = ConstantThresholdResist(0.3).develop(aerial)
        assert resist[aerial > 0.3].all()
        assert not resist[aerial < 0.3].any()
