"""``F.socs_intensity``: Eq. (4) as one autograd node, against the op chain.

The node's forward is the batched core's own field expression
(``repro.engine.batched.coherent_fields``) and its backward the closed form
stated in ``repro/nn/functional.py``.  Pinned here, each on the numpy and
scipy backends and a transforms-only one:

* value, gradient and a central-difference check against
  ``tests/reference.py::reference_socs_intensity`` (the
  ``mul -> embed -> ifftshift2 -> ifft2 -> abs2 -> sum`` chain it replaced)
  over batch, order, window and grid — odd, even, a grid equal to the window,
  ``B = r = 1``;
* ``GradientILT`` through the node is bit for bit ``GradientILT`` through
  the chain;
* training on the engine's grid matches the chain on the old ``2 x window``
  grid to rounding: the intensity is band-limited to both.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from reference import TRANSFORMS_ONLY, reference_socs_intensity
from repro.backend import get_backend
from repro.core import GradientILT, ILTSettings, NithoConfig, NithoModel
from repro.masks import ICCAD2013Generator
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.optics import OpticsConfig, lithosim_engine

BACKENDS = ["numpy", "scipy", TRANSFORMS_ONLY]

pytestmark = pytest.mark.usefixtures("transforms_only_backend")


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    monkeypatch.setenv("REPRO_FFT_BACKEND", request.param)
    return get_backend()


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _loss_and_grads(intensity_fn, kernels, spectra, grid, weight):
    """``sum(weight * I)`` and its gradients with respect to both operands."""
    k = Tensor(kernels, requires_grad=True)
    s = Tensor(spectra, requires_grad=True)
    intensity = intensity_fn(k, s, grid)
    loss = F.sum(F.mul(intensity, Tensor(weight)))
    loss.backward()
    return intensity.data, k.grad, s.grad


def _central_difference(loss, value, step=1e-4):
    """Gradient ``dL/da + i dL/db`` of a real loss of a complex array."""
    grad = np.zeros_like(value)
    flat, out = value.reshape(-1), grad.reshape(-1)
    for index in range(flat.size):
        for unit in (1.0, 1j):
            original = flat[index]
            flat[index] = original + unit * step
            plus = loss(value)
            flat[index] = original - unit * step
            minus = loss(value)
            flat[index] = original
            out[index] += unit * (plus - minus) / (2 * step)
    return grad


def _relative_error(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


class TestAgainstTheOpChain:
    @given(batch=st.integers(1, 2), order=st.integers(1, 2),
           n=st.integers(1, 5), m=st.integers(1, 5),
           pad_h=st.integers(0, 4), pad_w=st.integers(0, 4),
           seed=st.integers(0, 2 ** 16))
    @example(batch=1, order=1, n=3, m=3, pad_h=0, pad_w=0, seed=0)
    @example(batch=2, order=2, n=4, m=5, pad_h=3, pad_w=2, seed=1)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_value_gradient_and_central_difference(self, backend, batch, order,
                                                   n, m, pad_h, pad_w, seed):
        rng = np.random.default_rng(seed)
        kernels = _complex(rng, (order, n, m))
        spectra = _complex(rng, (batch, n, m))
        grid = (n + pad_h, m + pad_w)
        weight = rng.normal(size=(batch,) + grid)

        value, grad_k, grad_s = _loss_and_grads(
            F.socs_intensity, kernels, spectra, grid, weight)
        oracle, oracle_k, oracle_s = _loss_and_grads(
            reference_socs_intensity, kernels, spectra, grid, weight)
        assert value.shape == (batch,) + grid
        assert _relative_error(value, oracle) <= 1e-14
        assert _relative_error(grad_k, oracle_k) <= 1e-12
        assert _relative_error(grad_s, oracle_s) <= 1e-12

        def loss(k, s):
            return float(np.sum(weight * F.socs_intensity(k, s, grid).data))

        numeric_k = _central_difference(lambda k: loss(k, spectra), kernels.copy())
        numeric_s = _central_difference(lambda s: loss(kernels, s), spectra.copy())
        assert _relative_error(grad_k, numeric_k) <= 1e-6
        assert _relative_error(grad_s, numeric_s) <= 1e-6

    def test_grid_smaller_than_the_window_raises(self):
        with pytest.raises(ValueError, match="larger than target"):
            F.socs_intensity(np.ones((1, 5, 5), complex),
                             np.ones((1, 5, 5), complex), (4, 6))


@pytest.fixture(scope="module")
def golden64():
    return lithosim_engine(tile_size_px=64, pixel_size_nm=16.0)


def test_ilt_through_the_node_is_the_ilt_through_the_chain(backend, golden64,
                                                           monkeypatch):
    target = np.zeros((64, 64))
    target[12:52, 20:24] = 1.0
    target[12:52, 28:32] = 1.0
    target[29:35, 45:51] = 1.0
    settings_ = ILTSettings(iterations=12, learning_rate=0.4)
    node = GradientILT(golden64.kernels.kernels, settings_).optimise(target)
    monkeypatch.setattr(F, "socs_intensity", reference_socs_intensity)
    chain = GradientILT(golden64.kernels.kernels, settings_).optimise(target)
    for key in ("mask", "binary_mask", "aerial", "resist"):
        np.testing.assert_array_equal(node[key], chain[key], err_msg=key)
    assert node["history"] == chain["history"]


def test_engine_grid_training_matches_the_chain_on_the_old_grid(golden64,
                                                                monkeypatch):
    """Tiny-preset geometry (64 px, 16 nm, 29 x 29 window): the engine's grid
    is 60 x 60, the retired ``train_supersample=2`` rule gave 58 x 58."""
    optics = OpticsConfig(tile_size_px=64, pixel_size_nm=16.0)
    config = NithoConfig(num_kernels=6, hidden_dim=16, num_hidden_blocks=1,
                         epochs=3, batch_size=2,
                         encoding_kwargs={"num_features": 16})
    masks = ICCAD2013Generator(64, 16.0, seed=5).generate(4)
    aerials = golden64.aerial_batch(masks)

    engine_grid = NithoModel(optics, config)
    assert engine_grid.loss_grid == (60, 60)
    history = engine_grid.fit(masks, aerials)

    old_grid = NithoModel(optics, config)
    old_grid.loss_grid = (58, 58)
    monkeypatch.setattr(F, "socs_intensity", reference_socs_intensity)
    oracle = old_grid.fit(masks, aerials)
    np.testing.assert_allclose(history, oracle, rtol=1e-12, atol=0)
