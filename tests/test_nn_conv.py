"""Tests for convolution / pooling / upsampling layers (repro.nn.conv)."""

import numpy as np
import pytest
from scipy import signal

from repro import nn
from repro.nn import functional as F
from repro.nn.conv import conv2d, upsample2x
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(5)


class TestConvForward:
    def test_matches_scipy_cross_correlation(self):
        image = RNG.normal(size=(1, 1, 8, 8))
        kernel = RNG.normal(size=(1, 1, 3, 3))
        out = conv2d(Tensor(image), Tensor(kernel), stride=1, padding=1).data[0, 0]
        reference = signal.correlate2d(image[0, 0], kernel[0, 0], mode="same")
        np.testing.assert_allclose(out, reference, atol=1e-10)

    def test_output_shape_stride2(self):
        out = conv2d(Tensor(np.zeros((2, 3, 8, 8))), Tensor(np.zeros((4, 3, 3, 3))),
                     stride=2, padding=1)
        assert out.shape == (2, 4, 4, 4)

    def test_bias_is_added_per_channel(self):
        image = np.zeros((1, 1, 4, 4))
        kernel = np.zeros((2, 1, 1, 1))
        bias = np.array([1.5, -2.0])
        out = conv2d(Tensor(image), Tensor(kernel), Tensor(bias)).data
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_multi_channel_sum(self):
        image = np.ones((1, 3, 4, 4))
        kernel = np.ones((1, 3, 1, 1))
        out = conv2d(Tensor(image), Tensor(kernel)).data
        np.testing.assert_allclose(out, 3.0)


class TestConvBackward:
    def test_weight_gradient_numerical(self):
        image = Tensor(RNG.normal(size=(1, 2, 5, 5)))
        weight = Tensor(RNG.normal(size=(3, 2, 3, 3)), requires_grad=True)
        loss = F.sum(F.square(conv2d(image, weight, padding=1)))
        loss.backward()
        eps = 1e-6
        index = (1, 0, 2, 1)
        perturbed = weight.data.copy()
        perturbed[index] += eps
        plus = np.sum(conv2d(image, Tensor(perturbed), padding=1).data ** 2)
        perturbed[index] -= 2 * eps
        minus = np.sum(conv2d(image, Tensor(perturbed), padding=1).data ** 2)
        numeric = (plus - minus) / (2 * eps)
        assert weight.grad[index] == pytest.approx(numeric, rel=1e-4)

    def test_input_gradient_numerical(self):
        image = Tensor(RNG.normal(size=(1, 1, 5, 5)), requires_grad=True)
        weight = Tensor(RNG.normal(size=(2, 1, 3, 3)))
        loss = F.sum(F.square(conv2d(image, weight, stride=2, padding=1)))
        loss.backward()
        eps = 1e-6
        index = (0, 0, 3, 2)
        perturbed = image.data.copy()
        perturbed[index] += eps
        plus = np.sum(conv2d(Tensor(perturbed), weight, stride=2, padding=1).data ** 2)
        perturbed[index] -= 2 * eps
        minus = np.sum(conv2d(Tensor(perturbed), weight, stride=2, padding=1).data ** 2)
        numeric = (plus - minus) / (2 * eps)
        assert image.grad[index] == pytest.approx(numeric, rel=1e-4)

    def test_bias_gradient_is_output_sum(self):
        image = Tensor(RNG.normal(size=(2, 1, 4, 4)))
        weight = Tensor(RNG.normal(size=(1, 1, 3, 3)))
        bias = Tensor(np.zeros(1), requires_grad=True)
        out = conv2d(image, weight, bias, padding=1)
        F.sum(out).backward()
        assert bias.grad[0] == pytest.approx(2 * 4 * 4)


class TestPoolingAndUpsampling:
    def test_upsample_shape_and_values(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = upsample2x(Tensor(x)).data
        assert out.shape == (1, 1, 4, 4)
        assert out[0, 0, 0, 0] == 1.0 and out[0, 0, 1, 1] == 1.0
        assert out[0, 0, 3, 3] == 4.0

    def test_upsample_then_pool_is_identity(self):
        x = RNG.normal(size=(2, 3, 4, 4))
        out = upsample2x(Tensor(x)).data.reshape(2, 3, 4, 2, 4, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(out, x)

    def test_upsample_gradient(self):
        x = Tensor(RNG.normal(size=(1, 1, 3, 3)), requires_grad=True)
        F.sum(F.square(upsample2x(x))).backward()
        np.testing.assert_allclose(x.grad, 8 * x.data)  # each pixel appears 4x, d/dx of x^2 = 2x


class TestConvModules:
    def test_conv2d_module_shapes(self):
        layer = nn.Conv2d(3, 5, kernel_size=3, stride=1, padding=1)
        out = layer(Tensor(RNG.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 5, 8, 8)

    def test_conv2d_module_no_bias(self):
        layer = nn.Conv2d(1, 1, kernel_size=3, bias=False)
        assert "bias" not in dict(layer.named_parameters())

    def test_conv_module_trains_to_identity(self):
        """A 1x1 conv can learn to scale its input by a constant."""
        layer = nn.Conv2d(1, 1, kernel_size=1, rng=np.random.default_rng(0))
        optimizer = nn.Adam(layer.parameters(), lr=5e-2)
        x = RNG.normal(size=(4, 1, 6, 6))
        target = 3.0 * x
        for _ in range(200):
            loss = F.mse_loss(layer(Tensor(x)), Tensor(target))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert layer.weight.data[0, 0, 0, 0] == pytest.approx(3.0, abs=0.05)
