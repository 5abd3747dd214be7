"""Tests for the autograd Tensor container (repro.nn.tensor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, as_tensor, ones, tensor, unbroadcast, zeros


class TestConstruction:
    def test_real_data_is_float64(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64
        assert t.shape == (3,)

    def test_complex_data_is_complex128(self):
        t = Tensor([1 + 2j, 3])
        assert t.dtype == np.complex128
        assert t.is_complex

    def test_scalar_construction(self):
        t = Tensor(3.5)
        assert t.size == 1
        assert t.item() == pytest.approx(3.5)

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_rewrapped_data_shares_memory_and_carries_no_gradient(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        constant = Tensor(t.data)
        assert not constant.requires_grad
        assert np.shares_memory(constant.data, t.data)
        (t * constant).sum().backward()
        np.testing.assert_array_equal(t.grad, [1.0, 2.0])
        assert constant.grad is None

    def test_zeros_and_ones_helpers(self):
        assert np.all(zeros((2, 3)).data == 0)
        assert np.all(ones((2, 3)).data == 1)
        assert zeros((2,)).shape == (2,)

    def test_tensor_factory(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        assert t.requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_array(self):
        t = as_tensor(np.arange(3))
        assert isinstance(t, Tensor)
        assert not t.requires_grad

    def test_len_and_ndim(self):
        t = Tensor(np.zeros((4, 2)))
        assert len(t) == 4
        assert t.ndim == 2

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor([1.0, 2.0]))


class TestBackwardDriver:
    def test_backward_on_non_scalar_raises(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = t * 2.0
        with pytest.raises(ValueError):
            out.backward()

    def test_backward_on_complex_scalar_raises(self):
        t = Tensor([1.0 + 1j], requires_grad=True)
        out = t.sum()
        with pytest.raises(ValueError):
            out.backward()

    def test_backward_accumulates_over_multiple_uses(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_second_backward_accumulates(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2.0).backward()
        (x * 2.0).backward()
        assert x.grad == pytest.approx(4.0)

    def test_zero_grad_clears(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_tracking_without_requires_grad(self):
        x = Tensor([1.0, 2.0])
        y = x * 2.0
        assert y._backward is None
        assert not y.requires_grad

    def test_grad_of_real_tensor_stays_real(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        k = Tensor([1j, 2j])
        out = (x * k).abs2().sum()
        out.backward()
        assert not np.iscomplexobj(x.grad)

    def test_explicit_gradient_seed(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        y = x * 2.0
        y.backward(np.array([1.0, 0.0, 2.0]))
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 4.0])


class TestUnbroadcast:
    def test_identity_when_shapes_match(self):
        grad = np.ones((2, 3))
        np.testing.assert_array_equal(unbroadcast(grad, (2, 3)), grad)

    def test_sums_over_added_leading_axis(self):
        grad = np.ones((4, 2, 3))
        out = unbroadcast(grad, (2, 3))
        np.testing.assert_array_equal(out, np.full((2, 3), 4.0))

    def test_sums_over_size_one_axis(self):
        grad = np.ones((2, 3))
        out = unbroadcast(grad, (2, 1))
        np.testing.assert_array_equal(out, np.full((2, 1), 3.0))

    def test_scalar_target(self):
        grad = np.ones((2, 3))
        out = unbroadcast(grad, ())
        assert out == pytest.approx(6.0)

    @given(rows=st.integers(1, 4), cols=st.integers(1, 4), batch=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_total_mass_is_preserved(self, rows, cols, batch):
        grad = np.random.default_rng(0).normal(size=(batch, rows, cols))
        out = unbroadcast(grad, (rows, cols))
        assert out.shape == (rows, cols)
        assert np.sum(out) == pytest.approx(np.sum(grad))


class TestOperatorSugar:
    def test_add_radd(self):
        x = Tensor([1.0, 2.0])
        np.testing.assert_allclose((x + 1.0).data, [2.0, 3.0])
        np.testing.assert_allclose((1.0 + x).data, [2.0, 3.0])

    def test_sub_rsub(self):
        x = Tensor([1.0, 2.0])
        np.testing.assert_allclose((x - 1.0).data, [0.0, 1.0])
        np.testing.assert_allclose((1.0 - x).data, [0.0, -1.0])

    def test_mul_div(self):
        x = Tensor([2.0, 4.0])
        np.testing.assert_allclose((x * 2.0).data, [4.0, 8.0])
        np.testing.assert_allclose((x / 2.0).data, [1.0, 2.0])
        np.testing.assert_allclose((8.0 / x).data, [4.0, 2.0])

    def test_neg_and_pow(self):
        x = Tensor([2.0, 3.0])
        np.testing.assert_allclose((-x).data, [-2.0, -3.0])
        np.testing.assert_allclose((x ** 2).data, [4.0, 9.0])

    def test_matmul_operator(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose((a @ b).data, b.data)

    def test_getitem(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        np.testing.assert_allclose(x[0].data, [0.0, 1.0, 2.0])

    def test_reshape_transpose_helpers(self):
        x = Tensor(np.arange(6, dtype=float))
        assert x.reshape(2, 3).shape == (2, 3)
        assert x.reshape((3, 2)).shape == (3, 2)
        assert x.reshape(2, 3).T.shape == (3, 2)

    def test_sum_mean_helpers(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert x.sum().item() == pytest.approx(15.0)
        assert x.mean().item() == pytest.approx(2.5)
        assert x.sum(axis=0).shape == (3,)

    def test_complex_helpers(self):
        z = Tensor([1 + 2j, 3 - 4j])
        np.testing.assert_allclose(z.real().data, [1.0, 3.0])
        np.testing.assert_allclose(z.imag().data, [2.0, -4.0])
        np.testing.assert_allclose(z.conj().data, [1 - 2j, 3 + 4j])
        np.testing.assert_allclose(z.abs().data, [np.sqrt(5), 5.0])
        np.testing.assert_allclose(z.abs2().data, [5.0, 25.0])
