"""Cross-module property-based tests on physical invariants of the imaging pipeline.

These tie the optics substrate and the Nitho core together: whatever random
(but valid) mask or kernel bank hypothesis generates, the physical invariants
of partially-coherent imaging must hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.optics.kernel_dims import kernel_dimensions
from repro.engine import ExecutionEngine
from repro.optics.aerial import mask_spectrum
from repro.optics.pupil import Pupil
from repro.optics.socs import decompose_tcc
from repro.optics.source import CircularSource
from repro.optics.tcc import compute_tcc

TILE = 32
PIXEL = 32.0
FIELD = TILE * PIXEL
KERNEL_SHAPE = kernel_dimensions(TILE, TILE, pixel_size_nm=PIXEL)


@pytest.fixture(scope="module")
def golden_kernels():
    tcc = compute_tcc(CircularSource(sigma=0.6), Pupil(), KERNEL_SHAPE,
                      field_size_nm=FIELD, wavelength_nm=193.0, numerical_aperture=1.35)
    return decompose_tcc(tcc, max_order=12).kernels


def socs_aerial(mask, kernels):
    """One tile through the product's SOCS forward."""
    return ExecutionEngine(kernels).aerial(mask)


binary_masks = arrays(np.float64, (TILE, TILE), elements=st.sampled_from([0.0, 1.0]))


class TestImagingInvariants:
    @given(mask=binary_masks)
    @settings(max_examples=15, deadline=None)
    def test_intensity_is_non_negative(self, golden_kernels, mask):
        aerial = socs_aerial(mask, golden_kernels)
        assert aerial.min() >= -1e-12

    @given(mask=binary_masks, scale=st.floats(0.1, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_intensity_is_quadratic_in_mask_amplitude(self, golden_kernels, mask, scale):
        base = socs_aerial(mask, golden_kernels)
        scaled = socs_aerial(scale * mask, golden_kernels)
        np.testing.assert_allclose(scaled, scale ** 2 * base, rtol=1e-6, atol=1e-10)

    @given(mask=binary_masks, shift_rows=st.integers(-8, 8), shift_cols=st.integers(-8, 8))
    @settings(max_examples=15, deadline=None)
    def test_translation_covariance(self, golden_kernels, mask, shift_rows, shift_cols):
        base = socs_aerial(mask, golden_kernels)
        shifted = socs_aerial(np.roll(mask, (shift_rows, shift_cols), axis=(0, 1)),
                              golden_kernels)
        np.testing.assert_allclose(shifted, np.roll(base, (shift_rows, shift_cols), axis=(0, 1)),
                                   atol=1e-9)

    @given(mask=binary_masks)
    @settings(max_examples=15, deadline=None)
    def test_intensity_bounded_by_clear_field(self, golden_kernels, mask):
        """No binary mask can image brighter than ~the clear field (within diffraction ringing)."""
        aerial = socs_aerial(mask, golden_kernels)
        assert aerial.max() < 1.5

    @given(mask=binary_masks)
    @settings(max_examples=15, deadline=None)
    def test_real_mask_spectrum_is_hermitian(self, mask):
        spectrum = mask_spectrum(mask)
        flipped = np.conj(spectrum[::-1, ::-1])
        # For even sizes the Nyquist row/column has no mirror partner; compare the interior.
        np.testing.assert_allclose(spectrum[1:, 1:], np.roll(flipped, (1, 1), axis=(0, 1))[1:, 1:],
                                   atol=1e-9)

    @given(order=st.integers(1, 12))
    @settings(max_examples=10, deadline=None)
    def test_truncated_intensity_never_exceeds_full(self, golden_kernels, order):
        """Dropping (non-negative) coherent terms can only lower the intensity."""
        rng = np.random.default_rng(0)
        mask = (rng.random((TILE, TILE)) > 0.8).astype(float)
        full_engine = ExecutionEngine(golden_kernels)
        truncated = full_engine.truncate(order)
        assert np.all(truncated.aerial(mask) <= full_engine.aerial(mask) + 1e-9)


class TestRobustness:
    def test_kernel_bank_accepts_real_valued_kernels(self, golden_kernels):
        engine = ExecutionEngine(np.abs(golden_kernels))
        assert engine.kernels.dtype == np.complex128

    def test_aerial_with_single_kernel(self, golden_kernels):
        aerial = socs_aerial(np.ones((TILE, TILE)), golden_kernels[:1])
        assert aerial.shape == (TILE, TILE)

    def test_aerial_handles_non_binary_grayscale_masks(self, golden_kernels):
        rng = np.random.default_rng(1)
        grayscale = rng.random((TILE, TILE))
        aerial = socs_aerial(grayscale, golden_kernels)
        assert np.all(np.isfinite(aerial))

    def test_nan_mask_propagates_to_nan_not_crash(self, golden_kernels):
        mask = np.ones((TILE, TILE))
        mask[0, 0] = np.nan
        aerial = socs_aerial(mask, golden_kernels)
        assert np.isnan(aerial).any()
