"""Tests for the pupil model (repro.optics.pupil)."""

import numpy as np
import pytest

from repro.optics.grid import make_grid
from repro.optics.pupil import Pupil

GRID = make_grid(41, 41, field_size_nm=3000.0, wavelength_nm=193.0, numerical_aperture=1.35)


class TestIdealPupil:
    def test_ideal_is_binary_disk(self):
        transfer = Pupil().transfer(GRID)
        values = np.unique(np.abs(transfer))
        assert set(np.round(values, 12)).issubset({0.0, 1.0})

    def test_only_an_aberrated_pupil_carries_phase(self):
        inside = GRID.radius <= 0.9
        assert not Pupil().transfer(GRID).imag.any()
        for pupil in (Pupil(defocus_nm=50.0),
                      Pupil(zernike_coefficients={4: 0.1})):
            assert np.abs(pupil.transfer(GRID).imag[inside]).max() > 1e-3

    def test_cutoff_at_unit_radius(self):
        transfer = np.abs(Pupil().transfer(GRID))
        assert transfer[GRID.radius <= 0.99].min() == 1.0
        assert transfer[GRID.radius > 1.01].max() == 0.0


class TestDefocusAndAberrations:
    def test_defocus_adds_phase_only(self):
        ideal = Pupil().transfer(GRID)
        defocused = Pupil(defocus_nm=80.0).transfer(GRID)
        np.testing.assert_allclose(np.abs(defocused), np.abs(ideal), atol=1e-12)
        inside = GRID.radius <= 0.9
        assert np.any(np.abs(np.angle(defocused[inside])) > 1e-3)

    def test_zero_defocus_has_zero_phase(self):
        transfer = Pupil(defocus_nm=0.0).transfer(GRID)
        inside = GRID.radius <= 1.0
        np.testing.assert_allclose(np.angle(transfer[inside]), 0.0, atol=1e-12)

    def test_defocus_phase_grows_with_radius(self):
        transfer = Pupil(defocus_nm=100.0).transfer(GRID)
        centre_phase = abs(np.angle(transfer[20, 20]))
        edge_phase = abs(np.angle(transfer[20, 28]))
        assert edge_phase > centre_phase

    def test_zernike_defocus_term(self):
        transfer = Pupil(zernike_coefficients={4: 0.05}).transfer(GRID)
        inside = GRID.radius <= 0.9
        assert np.any(np.abs(np.angle(transfer[inside])) > 1e-3)

    def test_unknown_zernike_index_raises(self):
        with pytest.raises(ValueError):
            Pupil(zernike_coefficients={99: 0.1}).transfer(GRID)

    def test_all_supported_zernike_indices(self):
        pupil = Pupil(zernike_coefficients={index: 0.01 for index in range(1, 12)})
        transfer = pupil.transfer(GRID)
        assert np.all(np.isfinite(transfer))

    def test_apodization_reduces_edge_amplitude(self):
        plain = np.abs(Pupil().transfer(GRID))
        apodized = np.abs(Pupil(apodization=2.0).transfer(GRID))
        edge = (GRID.radius > 0.8) & (GRID.radius <= 1.0)
        assert apodized[edge].max() < plain[edge].max()
        assert apodized[20, 20] == pytest.approx(1.0)
