"""Value-semantics tests for repro.nn.functional (forward results, shapes, errors)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import functional as F
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(3)


class TestArithmetic:
    def test_add_broadcasts(self):
        out = F.add(Tensor(np.ones((2, 3))), Tensor(np.arange(3.0)))
        np.testing.assert_allclose(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_mul_complex_values(self):
        out = F.mul(Tensor([1 + 1j]), Tensor([2 - 1j]))
        np.testing.assert_allclose(out.data, [3 + 1j])

    def test_div_values(self):
        out = F.div(Tensor([4.0, 9.0]), Tensor([2.0, 3.0]))
        np.testing.assert_allclose(out.data, [2.0, 3.0])

    def test_matmul_shapes(self):
        out = F.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))))
        assert out.shape == (2, 4)
        np.testing.assert_allclose(out.data, 3.0)

    def test_power_matches_numpy(self):
        x = np.abs(RNG.normal(size=5)) + 0.1
        np.testing.assert_allclose(F.power(Tensor(x), 2.5).data, x ** 2.5)

    def test_exp_log_roundtrip(self):
        x = np.abs(RNG.normal(size=5)) + 0.1
        np.testing.assert_allclose(F.exp(F.log(Tensor(x))).data, x)

    def test_neg_values_and_operator(self):
        x = Tensor(np.array([1.5, -2.0 + 1j]))
        np.testing.assert_allclose(F.neg(x).data, [-1.5, 2.0 - 1j])
        np.testing.assert_allclose((-x).data, F.neg(x).data)


class TestReductionsAndShapes:
    def test_sum_axis_tuple(self):
        x = Tensor(np.ones((2, 3, 4)))
        assert F.sum(x, axis=(1, 2)).shape == (2,)
        np.testing.assert_allclose(F.sum(x, axis=(1, 2)).data, 12.0)

    def test_sum_negative_axis(self):
        x = Tensor(np.ones((2, 3)))
        assert F.sum(x, axis=-1).shape == (2,)

    def test_mean_matches_numpy(self):
        data = RNG.normal(size=(3, 4))
        np.testing.assert_allclose(F.mean(Tensor(data), axis=0).data, data.mean(axis=0))

    def test_mean_negative_axis_tuple_divides_by_their_extent(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        out = F.mean(Tensor(data), axis=(-1, -2))
        np.testing.assert_allclose(out.data, data.mean(axis=(1, 2)))

    def test_a_mod_wraps_negative_axes(self):
        assert [F.a_mod(axis, 3) for axis in (-3, -1, 0, 2)] == [0, 2, 0, 2]

    def test_reshape_and_transpose(self):
        data = np.arange(6.0).reshape(2, 3)
        assert F.reshape(Tensor(data), (3, 2)).shape == (3, 2)
        np.testing.assert_allclose(F.transpose(Tensor(data)).data, data.T)

    def test_concatenate_and_stack(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 2)))
        assert F.concatenate([a, b], axis=1).shape == (2, 4)
        assert F.stack([a, b], axis=0).shape == (2, 2, 2)

    def test_getitem_matches_numpy(self):
        data = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(F.getitem(Tensor(data), (1, slice(None))).data, data[1])

    def test_pad2d_shape(self):
        out = F.pad2d(Tensor(np.ones((1, 1, 4, 4))), (1, 2))
        assert out.shape == (1, 1, 6, 8)

    def test_crop_center_too_large_raises(self):
        with pytest.raises(ValueError):
            F.crop_center(Tensor(np.ones((3, 3))), 5, 5)

    def test_crop_keeps_dc_sample_for_even_to_odd(self):
        """DC (index size//2) must remain the centre sample after an even -> odd crop."""
        data = np.zeros((8, 8))
        data[4, 4] = 1.0  # DC position after fftshift of an 8x8 spectrum
        cropped = F.crop_center(Tensor(data), 5, 5)
        assert cropped.data[2, 2] == 1.0  # centre of a 5x5 window is index 2


class TestComplexOps:
    def test_conj_real_imag(self):
        z = Tensor([1 + 2j])
        np.testing.assert_allclose(F.conj(z).data, [1 - 2j])
        np.testing.assert_allclose(F.real(z).data, [1.0])
        np.testing.assert_allclose(F.imag(z).data, [2.0])

    def test_abs2_is_real_dtype(self):
        out = F.abs2(Tensor([3 + 4j]))
        assert out.dtype == np.float64
        np.testing.assert_allclose(out.data, [25.0])

    def test_to_complex_default_imag(self):
        out = F.to_complex(Tensor([1.0, 2.0]))
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out.data.imag, 0.0)


class TestActivations:
    def test_relu_and_leaky(self):
        x = Tensor([-1.0, 2.0])
        np.testing.assert_allclose(F.relu(x).data, [0.0, 2.0])
        np.testing.assert_allclose(F.leaky_relu(x, 0.1).data, [-0.1, 2.0])

    def test_sigmoid_bounds(self):
        out = F.sigmoid(Tensor(RNG.normal(size=50) * 10)).data
        assert np.all(out > 0) and np.all(out < 1)

    def test_tanh_matches_numpy(self):
        x = RNG.normal(size=5)
        np.testing.assert_allclose(F.tanh(Tensor(x)).data, np.tanh(x))

    def test_crelu_definition(self):
        z = Tensor([1 - 2j, -1 + 2j, -3 - 4j])
        np.testing.assert_allclose(F.crelu(z).data, [1 + 0j, 0 + 2j, 0 + 0j])

    def test_crelu_idempotent(self):
        z = Tensor(RNG.normal(size=10) + 1j * RNG.normal(size=10))
        once = F.crelu(z)
        twice = F.crelu(once)
        np.testing.assert_allclose(once.data, twice.data)


class TestFFT:
    def test_fft_ifft_roundtrip(self):
        data = RNG.normal(size=(8, 8)) + 1j * RNG.normal(size=(8, 8))
        out = F.ifft2(F.fft2(Tensor(data)))
        np.testing.assert_allclose(out.data, data, atol=1e-12)

    def test_fft_is_orthonormal(self):
        data = RNG.normal(size=(8, 8))
        spectrum = F.fft2(Tensor(data)).data
        assert np.sum(np.abs(spectrum) ** 2) == pytest.approx(np.sum(data ** 2))

    def test_fftshift_roundtrip(self):
        data = RNG.normal(size=(5, 6)) + 0j
        out = F.ifftshift2(F.fftshift2(Tensor(data)))
        np.testing.assert_allclose(out.data, data)

    def test_fftshift_moves_dc(self):
        data = np.zeros((4, 4), dtype=complex)
        data[0, 0] = 1.0
        shifted = F.fftshift2(Tensor(data)).data
        assert shifted[2, 2] == 1.0


class TestLosses:
    def test_mse_zero_for_identical(self):
        x = Tensor(RNG.normal(size=(3, 3)))
        assert F.mse_loss(x, Tensor(x.data.copy())).item() == pytest.approx(0.0)

    def test_mse_matches_numpy(self):
        a, b = RNG.normal(size=10), RNG.normal(size=10)
        assert F.mse_loss(Tensor(a), Tensor(b)).item() == pytest.approx(np.mean((a - b) ** 2))

    def test_bce_matches_reference(self):
        logits = RNG.normal(size=20)
        targets = (RNG.random(20) > 0.5).astype(float)
        probabilities = 1 / (1 + np.exp(-logits))
        reference = -np.mean(targets * np.log(probabilities) + (1 - targets) * np.log(1 - probabilities))
        value = F.bce_with_logits_loss(Tensor(logits), Tensor(targets)).item()
        assert value == pytest.approx(reference, rel=1e-6)

    @given(arrays(np.float64, (4, 4), elements=st.floats(-5, 5)),
           arrays(np.float64, (4, 4), elements=st.floats(-5, 5)))
    @settings(max_examples=25, deadline=None)
    def test_mse_is_non_negative_and_symmetric(self, a, b):
        forward = F.mse_loss(Tensor(a), Tensor(b)).item()
        backward = F.mse_loss(Tensor(b), Tensor(a)).item()
        assert forward >= 0
        assert forward == pytest.approx(backward)
