"""Tests for the resolution-limit kernel dimensioning (Eq. (10))."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optics.kernel_dims import kernel_dimensions, kernel_half_width


class TestKernelHalfWidth:
    def test_paper_example(self):
        """lambda = 193 nm, NA = 1.35: a 1000 nm tile needs ~14 samples to the cut-off."""
        assert kernel_half_width(1000.0) == 13  # floor(1000 * 2 * 1.35 / 193) = floor(13.99)

    def test_scales_linearly_with_extent(self):
        assert kernel_half_width(2000.0) == pytest.approx(2 * 13, abs=1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            kernel_half_width(0.0)
        with pytest.raises(ValueError):
            kernel_half_width(100.0, wavelength_nm=0.0)


class TestKernelDimensions:
    def test_paper_ratio(self):
        """Eq. (10): at 1 nm/pixel, m ~= 0.028 * W."""
        n, m = kernel_dimensions(2000, 2000, pixel_size_nm=1.0)
        assert m == pytest.approx(0.028 * 2000, rel=0.05)
        assert n == m

    def test_always_odd(self):
        for width in (50, 64, 100, 128, 200, 256):
            n, m = kernel_dimensions(width, width, pixel_size_nm=4.0)
            # odd unless clamped by the tile size itself
            if m < width:
                assert m % 2 == 1
            if n < width:
                assert n % 2 == 1

    def test_clamped_by_tile_size(self):
        n, m = kernel_dimensions(16, 16, pixel_size_nm=100.0)
        assert n <= 16 and m <= 16

    def test_rectangular_tiles(self):
        n, m = kernel_dimensions(128, 64, pixel_size_nm=8.0)
        assert n < m  # height 64 px -> fewer rows than the 128 px width

    def test_pixel_size_equivalence(self):
        """Same physical extent -> same kernel window regardless of sampling."""
        assert kernel_dimensions(128, 128, pixel_size_nm=8.0) == \
            kernel_dimensions(256, 256, pixel_size_nm=4.0)

    def test_larger_na_needs_larger_window(self):
        small = kernel_dimensions(128, 128, numerical_aperture=0.9, pixel_size_nm=8.0)
        large = kernel_dimensions(128, 128, numerical_aperture=1.35, pixel_size_nm=8.0)
        assert large[0] >= small[0]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            kernel_dimensions(0, 10)
        with pytest.raises(ValueError):
            kernel_dimensions(10, 10, pixel_size_nm=0.0)

    @given(width=st.integers(16, 512), pixel=st.floats(1.0, 16.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_physical_extent(self, width, pixel):
        n1, m1 = kernel_dimensions(width, width, pixel_size_nm=pixel)
        n2, m2 = kernel_dimensions(width * 2, width * 2, pixel_size_nm=pixel)
        assert m2 >= m1 and n2 >= n1
