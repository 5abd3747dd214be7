"""Tests for frequency-grid helpers (repro.optics.grid)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import embed_centre
from repro.optics.grid import centred_indices, crop_centre, make_grid


class TestCentredIndices:
    def test_even_size(self):
        np.testing.assert_array_equal(centred_indices(4), [-2, -1, 0, 1])

    def test_odd_size(self):
        np.testing.assert_array_equal(centred_indices(5), [-2, -1, 0, 1, 2])

    @given(size=st.integers(1, 64))
    @settings(max_examples=30, deadline=None)
    def test_zero_at_index_half(self, size):
        indices = centred_indices(size)
        assert indices[size // 2] == 0


class TestMakeGrid:
    def test_dc_at_centre(self):
        grid = make_grid(7, 7, field_size_nm=1000.0, wavelength_nm=193.0, numerical_aperture=1.35)
        assert grid.fx[3, 3] == 0.0
        assert grid.fy[3, 3] == 0.0

    def test_normalisation_by_cutoff(self):
        """One frequency step equals (1/field) / (NA/lambda) in normalised units."""
        grid = make_grid(5, 5, field_size_nm=1000.0, wavelength_nm=193.0, numerical_aperture=1.35)
        expected_step = (1.0 / 1000.0) / (1.35 / 193.0)
        assert grid.fx[0, 3] - grid.fx[0, 2] == pytest.approx(expected_step)

    def test_radius_is_hypot(self):
        grid = make_grid(5, 5, 500.0, 193.0, 1.35)
        np.testing.assert_allclose(grid.radius, np.hypot(grid.fx, grid.fy))

    def test_invalid_field_size(self):
        with pytest.raises(ValueError):
            make_grid(5, 5, 0.0, 193.0, 1.35)

    def test_shape_property(self):
        grid = make_grid(3, 7, 500.0, 193.0, 1.35)
        assert grid.shape == (3, 7)


class TestCropEmbed:
    def test_crop_shape(self):
        out = crop_centre(np.ones((10, 10)), 4, 6)
        assert out.shape == (4, 6)

    def test_crop_too_large_raises(self):
        with pytest.raises(ValueError):
            crop_centre(np.ones((4, 4)), 6, 6)

    def test_embed_too_large_raises(self):
        with pytest.raises(ValueError):
            embed_centre(np.ones((6, 6)), 4, 4)

    def test_crop_keeps_dc_aligned_even_to_odd(self):
        spectrum = np.zeros((8, 8))
        spectrum[4, 4] = 1.0
        cropped = crop_centre(spectrum, 5, 5)
        assert cropped[2, 2] == 1.0

    def test_embed_keeps_dc_aligned_odd_to_even(self):
        block = np.zeros((5, 5))
        block[2, 2] = 1.0
        embedded = embed_centre(block, 8, 8)
        assert embedded[4, 4] == 1.0

    def test_embed_preserves_dtype(self):
        block = np.ones((3, 3), dtype=complex)
        assert embed_centre(block, 5, 5).dtype == np.complex128

    def test_embed_supports_leading_axes(self):
        block = np.ones((2, 3, 3))
        assert embed_centre(block, 7, 7).shape == (2, 7, 7)

    @given(full=st.integers(6, 20), crop=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_crop_embed_roundtrip_preserves_energy(self, full, crop):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(crop, crop))
        embedded = embed_centre(data, full, full)
        recovered = crop_centre(embedded, crop, crop)
        np.testing.assert_allclose(recovered, data)
        assert np.sum(embedded ** 2) == pytest.approx(np.sum(data ** 2))
