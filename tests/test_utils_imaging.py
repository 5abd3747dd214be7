"""Tests for the shared imaging utilities (repro.utils.imaging)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.utils.imaging import binarize, fourier_resize, normalize01

RNG = np.random.default_rng(21)


class TestFourierResize:
    def test_identity_for_same_shape(self):
        image = RNG.random((16, 16))
        np.testing.assert_allclose(fourier_resize(image, (16, 16)), image)

    def test_output_shape(self):
        assert fourier_resize(RNG.random((16, 16)), (8, 8)).shape == (8, 8)
        assert fourier_resize(RNG.random((16, 16)), (32, 32)).shape == (32, 32)

    def test_preserves_mean(self):
        image = RNG.random((16, 16))
        resized = fourier_resize(image, (8, 8))
        assert resized.mean() == pytest.approx(image.mean(), rel=1e-9)

    def test_upsample_then_downsample_roundtrip_for_smooth_images(self):
        """Exact for images without energy at the Nyquist frequency."""
        x = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        image = 0.5 + 0.3 * np.outer(np.sin(x), np.cos(2 * x))
        roundtrip = fourier_resize(fourier_resize(image, (32, 32)), (8, 8))
        np.testing.assert_allclose(roundtrip, image, atol=1e-10)

    def test_constant_image_stays_constant(self):
        image = np.full((12, 12), 3.7)
        np.testing.assert_allclose(fourier_resize(image, (20, 20)), 3.7, atol=1e-10)

    def test_band_limited_downsample_is_exact(self):
        """Downsampling a band-limited image to a grid still covering its band is lossless."""
        low = np.zeros((32, 32), dtype=complex)
        low[16 - 3:16 + 4, 16 - 3:16 + 4] = (RNG.normal(size=(7, 7)) + 1j * RNG.normal(size=(7, 7)))
        low[16, 16] = np.real(low[16, 16])
        image = np.real(np.fft.ifft2(np.fft.ifftshift(low), norm="forward"))
        down = fourier_resize(image, (16, 16))
        back = fourier_resize(down, (32, 32))
        np.testing.assert_allclose(back, image, atol=1e-9)

    def test_accepts_a_batch_and_rejects_1d(self):
        images = RNG.random((4, 4, 4))
        np.testing.assert_allclose(
            fourier_resize(images, (8, 8)),
            np.stack([fourier_resize(image, (8, 8)) for image in images]),
            rtol=0, atol=1e-12)
        with pytest.raises(ValueError):
            fourier_resize(RNG.random(8), (8, 8))
        with pytest.raises(ValueError):
            fourier_resize(RNG.random((8, 8)), (0, 8))

    @given(arrays(np.float64, (12, 12), elements=st.floats(-1, 1)))
    @settings(max_examples=25, deadline=None)
    def test_mean_preservation_property(self, image):
        resized = fourier_resize(image, (6, 6))
        assert resized.mean() == pytest.approx(image.mean(), abs=1e-9)


class TestSmallHelpers:
    def test_binarize(self):
        out = binarize(np.array([0.1, 0.6, 0.5]))
        np.testing.assert_array_equal(out, [0, 1, 0])
        assert out.dtype == np.uint8

    def test_normalize01_range(self):
        out = normalize01(RNG.normal(size=(8, 8)) * 10)
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    def test_normalize01_constant_image(self):
        np.testing.assert_allclose(normalize01(np.full((4, 4), 2.0)), 0.0)
