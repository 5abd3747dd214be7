"""Numerical gradient checks for the Wirtinger-calculus autograd engine.

For a real-valued loss L(x), the stored gradient of a real tensor must match
dL/dx and the gradient of a complex tensor must match dL/da + i dL/db
(central finite differences on the real and imaginary parts).
"""

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor

EPS = 1e-6
RTOL = 1e-4
ATOL = 1e-6


def numerical_gradient(loss_fn, value: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a real scalar loss w.r.t. ``value``."""
    value = np.asarray(value)
    grad = np.zeros_like(value, dtype=np.complex128 if np.iscomplexobj(value) else np.float64)
    flat = value.ravel()
    grad_flat = grad.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + EPS
        plus = loss_fn(value)
        flat[index] = original - EPS
        minus = loss_fn(value)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * EPS)
        if np.iscomplexobj(value):
            flat[index] = original + 1j * EPS
            plus = loss_fn(value)
            flat[index] = original - 1j * EPS
            minus = loss_fn(value)
            flat[index] = original
            grad_flat[index] += 1j * (plus - minus) / (2 * EPS)
    return grad


def check_gradient(build_loss, value: np.ndarray) -> None:
    """Compare the autograd gradient of ``build_loss`` against finite differences."""
    tensor_value = Tensor(value.copy(), requires_grad=True)
    loss = build_loss(tensor_value)
    loss.backward()
    analytic = tensor_value.grad

    def numeric_fn(array):
        return float(build_loss(Tensor(array.copy())).item())

    numeric = numerical_gradient(numeric_fn, value.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=RTOL, atol=ATOL)


RNG = np.random.default_rng(42)


def real_array(*shape):
    return RNG.normal(size=shape)


def complex_array(*shape):
    return RNG.normal(size=shape) + 1j * RNG.normal(size=shape)


class TestRealGradients:
    def test_add(self):
        other = Tensor(real_array(3, 4))
        check_gradient(lambda x: F.sum(F.add(x, other)), real_array(3, 4))

    def test_add_broadcast(self):
        other = Tensor(real_array(4))
        check_gradient(lambda x: F.sum(F.square(F.add(x, other))), real_array(3, 4))

    def test_sub(self):
        other = Tensor(real_array(3))
        check_gradient(lambda x: F.sum(F.square(F.sub(x, other))), real_array(3))

    def test_mul(self):
        other = Tensor(real_array(2, 3))
        check_gradient(lambda x: F.sum(F.mul(x, other)), real_array(2, 3))

    def test_div(self):
        other = Tensor(real_array(3) + 2.0)
        check_gradient(lambda x: F.sum(F.div(x, other)), real_array(3))

    def test_div_denominator(self):
        numerator = Tensor(real_array(3))
        check_gradient(lambda x: F.sum(F.div(numerator, x)), real_array(3) + 2.0)

    def test_matmul_left(self):
        other = Tensor(real_array(4, 2))
        check_gradient(lambda x: F.sum(F.matmul(x, other)), real_array(3, 4))

    def test_matmul_right(self):
        other = Tensor(real_array(3, 4))
        check_gradient(lambda x: F.sum(F.square(F.matmul(other, x))), real_array(4, 2))

    def test_power(self):
        check_gradient(lambda x: F.sum(F.power(x, 3.0)), np.abs(real_array(4)) + 0.5)

    def test_exp(self):
        check_gradient(lambda x: F.sum(F.exp(x)), real_array(4))

    def test_log(self):
        check_gradient(lambda x: F.sum(F.log(x)), np.abs(real_array(4)) + 0.5)

    def test_sqrt(self):
        check_gradient(lambda x: F.sum(F.sqrt(x)), np.abs(real_array(4)) + 0.5)

    def test_sum_with_axis(self):
        check_gradient(lambda x: F.sum(F.square(F.sum(x, axis=1))), real_array(3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda x: F.sum(F.square(F.sum(x, axis=0, keepdims=True))), real_array(3, 4))

    def test_mean(self):
        check_gradient(lambda x: F.sum(F.square(F.mean(x, axis=1))), real_array(3, 4))

    def test_reshape(self):
        check_gradient(lambda x: F.sum(F.square(F.reshape(x, (6,)))), real_array(2, 3))

    def test_transpose(self):
        weight = Tensor(real_array(3, 2))
        check_gradient(lambda x: F.sum(F.mul(F.transpose(x, (1, 0)), weight)), real_array(2, 3))

    def test_getitem(self):
        check_gradient(lambda x: F.sum(F.square(F.getitem(x, (slice(0, 2), 1)))), real_array(3, 3))

    def test_concatenate(self):
        other = Tensor(real_array(2, 3))
        check_gradient(lambda x: F.sum(F.square(F.concatenate([x, other], axis=0))), real_array(2, 3))

    def test_stack(self):
        other = Tensor(real_array(2, 2))
        check_gradient(lambda x: F.sum(F.square(F.stack([x, other], axis=0))), real_array(2, 2))

    def test_pad2d(self):
        check_gradient(lambda x: F.sum(F.square(F.pad2d(x, 1))), real_array(3, 3))

    def test_crop_center(self):
        check_gradient(lambda x: F.sum(F.square(F.crop_center(x, 2, 2))), real_array(4, 4))

    def test_relu(self):
        check_gradient(lambda x: F.sum(F.square(F.relu(x))), real_array(5) + 0.1)

    def test_leaky_relu(self):
        check_gradient(lambda x: F.sum(F.square(F.leaky_relu(x, 0.1))), real_array(5) + 0.1)

    def test_sigmoid(self):
        check_gradient(lambda x: F.sum(F.square(F.sigmoid(x))), real_array(4))

    def test_tanh(self):
        check_gradient(lambda x: F.sum(F.square(F.tanh(x))), real_array(4))

    def test_abs_real(self):
        check_gradient(lambda x: F.sum(F.abs(x)), real_array(4) + 2.0)

    def test_mse_loss(self):
        target = Tensor(real_array(3, 3))
        check_gradient(lambda x: F.mse_loss(x, target), real_array(3, 3))

    def test_bce_with_logits(self):
        target = Tensor((real_array(4) > 0).astype(float))
        check_gradient(lambda x: F.bce_with_logits_loss(x, target), real_array(4))


class TestComplexGradients:
    def test_mul_complex(self):
        other = Tensor(complex_array(3))
        check_gradient(lambda z: F.sum(F.abs2(F.mul(z, other))), complex_array(3))

    def test_matmul_complex(self):
        other = Tensor(complex_array(3, 2))
        check_gradient(lambda z: F.sum(F.abs2(F.matmul(z, other))), complex_array(2, 3))

    def test_conj(self):
        other = Tensor(complex_array(3))
        check_gradient(lambda z: F.sum(F.abs2(F.add(F.conj(z), other))), complex_array(3))

    def test_real_part(self):
        check_gradient(lambda z: F.sum(F.square(F.real(z))), complex_array(4))

    def test_imag_part(self):
        check_gradient(lambda z: F.sum(F.square(F.imag(z))), complex_array(4))

    def test_abs2(self):
        check_gradient(lambda z: F.sum(F.abs2(z)), complex_array(4))

    def test_abs_complex(self):
        check_gradient(lambda z: F.sum(F.abs(z)), complex_array(4) + 2.0)

    def test_crelu(self):
        check_gradient(lambda z: F.sum(F.abs2(F.crelu(z))), complex_array(4) + (0.1 + 0.1j))

    def test_to_complex(self):
        imaginary = Tensor(real_array(3))
        check_gradient(lambda x: F.sum(F.abs2(F.to_complex(x, imaginary))), real_array(3))

    def test_fft2(self):
        check_gradient(lambda z: F.sum(F.abs2(F.fft2(z))), complex_array(4, 4))

    def test_ifft2(self):
        check_gradient(lambda z: F.sum(F.abs2(F.ifft2(z))), complex_array(4, 4))

    def test_fftshift2(self):
        weight = Tensor(complex_array(4, 4))
        check_gradient(lambda z: F.sum(F.abs2(F.mul(F.fftshift2(z), weight))), complex_array(4, 4))

    def test_ifftshift2(self):
        weight = Tensor(complex_array(5, 5))
        check_gradient(lambda z: F.sum(F.abs2(F.mul(F.ifftshift2(z), weight))), complex_array(5, 5))

    def test_exp_complex(self):
        check_gradient(lambda z: F.sum(F.abs2(F.exp(z))), 0.3 * complex_array(3))

    def test_crop_embed_complex(self):
        """A spectrum cropped to the window, embedded in a grid by the SOCS node."""
        kernel = Tensor(complex_array(1, 3, 3))
        check_gradient(
            lambda z: F.sum(F.socs_intensity(kernel, F.reshape(F.crop_center(z, 3, 3),
                                                               (1, 3, 3)), (6, 6))),
            complex_array(5, 5))

    def test_socs_style_pipeline(self):
        """Gradient through the full Algorithm-1 path: the SOCS node under a
        non-linear loss, for the kernels and for the spectra."""
        spectra = complex_array(2, 3, 3)
        kernels = complex_array(2, 3, 3)

        def loss(kernel_values, spectrum_values):
            intensity = F.socs_intensity(kernel_values, spectrum_values, (6, 5))
            return F.sum(F.square(intensity))

        check_gradient(lambda k: loss(k, Tensor(spectra)), kernels)
        check_gradient(lambda s: loss(Tensor(kernels), s), spectra)

    def test_complex_linear_layer_weight_gradient(self):
        features = Tensor(complex_array(5, 3))

        def loss(weight):
            out = F.crelu(F.matmul(features, weight))
            return F.sum(F.abs2(out))

        check_gradient(loss, complex_array(3, 2))


class TestGradientTypes:
    def test_real_parameter_in_complex_graph_gets_real_grad(self):
        x = Tensor(real_array(3), requires_grad=True)
        k = Tensor(complex_array(3))
        loss = F.sum(F.abs2(F.mul(F.to_complex(x), k)))
        loss.backward()
        assert x.grad.dtype == np.float64

    def test_complex_parameter_gets_complex_grad(self):
        z = Tensor(complex_array(3), requires_grad=True)
        loss = F.sum(F.abs2(z))
        loss.backward()
        assert z.grad.dtype == np.complex128

    def test_gradient_descent_direction_reduces_loss(self):
        z = Tensor(complex_array(4), requires_grad=True)
        target = Tensor(complex_array(4))
        loss = F.sum(F.abs2(F.sub(z, target)))
        loss.backward()
        stepped = z.data - 0.1 * z.grad
        new_loss = np.sum(np.abs(stepped - target.data) ** 2)
        assert new_loss < float(loss.item())

    def test_neg_gradient_is_negated_upstream(self):
        rng = np.random.default_rng(5)
        check_gradient(lambda x: F.sum(F.square(F.add(F.neg(x), 1.0))),
                       rng.normal(size=4))
        check_gradient(lambda x: F.sum(F.abs2(F.neg(x))),
                       rng.normal(size=3) + 1j * rng.normal(size=3))
