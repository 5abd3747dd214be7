"""Tests for modules in repro.nn.layers (Module plumbing, linear layers, activations)."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(11)


class TestModulePlumbing:
    def test_parameters_are_collected_recursively(self):
        model = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == 4  # two weights + two biases
        assert any(name.endswith("weight") for name in names)

    def test_num_parameters_counts_complex_twice(self):
        real = nn.Linear(3, 4, bias=False)
        cplx = nn.CLinear(3, 4, bias=False)
        assert real.num_parameters() == 12
        assert cplx.num_parameters() == 24

    def test_size_megabytes_positive(self):
        assert nn.Linear(10, 10).size_megabytes() > 0

    def test_zero_grad_clears_all(self):
        model = nn.Linear(3, 2)
        out = F.sum(model(Tensor(RNG.normal(size=(4, 3)))))
        out.backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Linear(2, 2), nn.ReLU())
        model.eval()
        assert all(not m.training for m in model)
        model.train()
        assert all(m.training for m in model)

    def test_state_dict_roundtrip(self):
        source = nn.Linear(3, 2, rng=np.random.default_rng(0))
        target = nn.Linear(3, 2, rng=np.random.default_rng(99))
        target.load_state_dict(source.state_dict())
        np.testing.assert_allclose(source.weight.data, target.weight.data)

    def test_load_state_dict_missing_key_raises(self):
        model = nn.Linear(3, 2)
        state = model.state_dict()
        state.pop("bias")
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_shape_mismatch_raises(self):
        model = nn.Linear(3, 2)
        state = model.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(Tensor([1.0]))


class TestLinearLayers:
    def test_linear_output_shape(self):
        layer = nn.Linear(5, 3)
        assert layer(Tensor(RNG.normal(size=(7, 5)))).shape == (7, 3)

    def test_linear_no_bias(self):
        layer = nn.Linear(5, 3, bias=False)
        assert "bias" not in dict(layer.named_parameters())

    def test_linear_matches_manual_computation(self):
        layer = nn.Linear(3, 2)
        x = RNG.normal(size=(4, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_clinear_output_is_complex(self):
        layer = nn.CLinear(4, 3)
        out = layer(Tensor(RNG.normal(size=(2, 4)) + 1j * RNG.normal(size=(2, 4))))
        assert out.dtype == np.complex128
        assert out.shape == (2, 3)

    def test_clinear_weights_are_complex(self):
        layer = nn.CLinear(4, 3)
        assert layer.weight.is_complex
        assert layer.bias.is_complex

    def test_clinear_trains_to_fit_linear_map(self):
        """A single CLinear layer can recover a fixed complex linear map."""
        rng = np.random.default_rng(0)
        true_weight = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        inputs = rng.normal(size=(32, 3)) + 1j * rng.normal(size=(32, 3))
        targets = inputs @ true_weight

        layer = nn.CLinear(3, 2, rng=rng)
        optimizer = nn.Adam(layer.parameters(), lr=5e-2)
        for _ in range(300):
            prediction = layer(Tensor(inputs))
            loss = F.sum(F.abs2(F.sub(prediction, Tensor(targets))))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, true_weight, atol=5e-2)


class TestActivationsAndContainers:
    def test_sequential_applies_in_order(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=np.random.default_rng(0)), nn.ReLU())
        out = model(Tensor(RNG.normal(size=(3, 2))))
        assert np.all(out.data >= 0)

    def test_sequential_len_and_iter(self):
        model = nn.Sequential(nn.ReLU(), nn.CReLU())
        assert len(model) == 2
        assert len(list(model)) == 2

    def test_crelu_module(self):
        out = nn.CReLU()(Tensor([-1 - 1j, 1 + 1j]))
        np.testing.assert_allclose(out.data, [0, 1 + 1j])


class TestInitialisers:
    @pytest.mark.parametrize("shape, fans", [((6, 10), (6, 10)),
                                             ((4, 3, 3, 3), (27, 36))])
    def test_glorot_uniform_stays_inside_its_limit(self, shape, fans):
        weight = nn.glorot_uniform(shape, np.random.default_rng(0))
        limit = np.sqrt(6.0 / sum(fans))
        assert weight.shape == shape and weight.dtype == np.float64
        assert np.abs(weight).max() <= limit
        assert np.abs(weight).max() > 0.5 * limit

    def test_he_uniform_limit_follows_fan_in(self):
        weight = nn.he_uniform((8, 2, 3, 3), np.random.default_rng(0))
        limit = np.sqrt(6.0 / (2 * 9))
        assert np.abs(weight).max() <= limit
        assert np.abs(weight).max() > 0.5 * limit

    def test_complex_glorot_magnitude_variance_and_phase(self):
        """Rayleigh magnitude with mode 1/sqrt(fan_in + fan_out): E|w|^2 = 2 sigma^2."""
        weight = nn.complex_glorot((200, 300), np.random.default_rng(0))
        assert weight.dtype == np.complex128
        sigma2 = 1.0 / 500
        assert np.mean(np.abs(weight) ** 2) == pytest.approx(2 * sigma2, rel=0.02)
        assert abs(np.mean(weight)) < 0.05 * np.sqrt(sigma2)

    def test_same_generator_state_same_weights(self):
        for init in (nn.glorot_uniform, nn.he_uniform, nn.complex_glorot):
            np.testing.assert_array_equal(
                init((5, 7), np.random.default_rng(9)),
                init((5, 7), np.random.default_rng(9)))
