"""Micro-benchmarks of the computational kernels behind every experiment.

These use pytest-benchmark's timing loop properly (multiple rounds) and cover
the operations whose cost dominates the tables: TCC construction, SOCS
decomposition, kernel-bank imaging, rigorous Abbe imaging, one Nitho training
step and one CMLP kernel prediction.
"""

import numpy as np
import pytest

from repro.core import NithoConfig, NithoModel, NithoTrainer
from repro.masks import ICCAD2013Generator
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.optics import LithographySimulator, OpticsConfig, CircularSource
from repro.optics.socs import decompose_tcc
from repro.optics.tcc import compute_tcc
from repro.optics.pupil import Pupil

TILE = 64
PIXEL = 16.0


@pytest.fixture(scope="module")
def micro_simulator():
    config = OpticsConfig(tile_size_px=TILE, pixel_size_nm=PIXEL, max_socs_order=16)
    simulator = LithographySimulator(config, source=CircularSource(sigma=0.6))
    simulator.kernels  # pre-compute the kernel bank outside the timed region
    return simulator


@pytest.fixture(scope="module")
def micro_mask():
    return ICCAD2013Generator(TILE, PIXEL, seed=3).sample()


@pytest.fixture(scope="module")
def micro_nitho(micro_simulator, micro_mask):
    config = NithoConfig(num_kernels=8, hidden_dim=32, num_hidden_blocks=1, epochs=2,
                         batch_size=2, encoding_kwargs={"num_features": 32})
    model = NithoModel(micro_simulator.config, config)
    return model


def test_bench_tcc_computation(benchmark, micro_simulator):
    config = micro_simulator.config
    result = benchmark(
        lambda: compute_tcc(micro_simulator.source, Pupil(), (15, 15),
                            field_size_nm=config.field_size_nm,
                            wavelength_nm=config.wavelength_nm,
                            numerical_aperture=config.numerical_aperture))
    assert result.matrix.shape == (225, 225)


def test_bench_socs_decomposition(benchmark, micro_simulator):
    config = micro_simulator.config
    tcc = compute_tcc(micro_simulator.source, micro_simulator.pupil,
                      micro_simulator.kernel_shape,
                      field_size_nm=config.field_size_nm,
                      wavelength_nm=config.wavelength_nm,
                      numerical_aperture=config.numerical_aperture)
    kernels = benchmark(lambda: decompose_tcc(tcc, max_order=16))
    assert kernels.order <= 16


def test_bench_kernel_bank_aerial(benchmark, micro_simulator, micro_mask):
    aerial = benchmark(lambda: micro_simulator.aerial(micro_mask))
    assert aerial.shape == micro_mask.shape


def test_bench_rigorous_abbe_aerial(benchmark, micro_simulator, micro_mask):
    aerial = benchmark.pedantic(lambda: micro_simulator.aerial_rigorous(micro_mask),
                                rounds=2, iterations=1)
    assert aerial.shape == micro_mask.shape


def test_bench_nitho_training_epoch(benchmark, micro_nitho, micro_simulator, micro_mask):
    masks = np.stack([micro_mask, np.roll(micro_mask, 7, axis=1)])
    aerials = np.stack([micro_simulator.aerial(m) for m in masks])
    trainer = NithoTrainer(micro_nitho)
    history = benchmark.pedantic(lambda: trainer.fit(masks, aerials, epochs=1),
                                 rounds=3, iterations=1)
    assert len(history) == 1


def test_bench_cmlp_kernel_prediction(benchmark, micro_nitho):
    kernels = benchmark(lambda: micro_nitho.predicted_kernels_tensor())
    assert kernels.shape[0] == micro_nitho.config.num_kernels


def test_bench_fft2_autograd_roundtrip(benchmark):
    data = np.random.default_rng(0).normal(size=(128, 128)) + 0j

    def roundtrip():
        tensor = Tensor(data, requires_grad=True)
        loss = F.sum(F.abs2(F.ifft2(F.fft2(tensor))))
        loss.backward()
        return loss

    result = benchmark(roundtrip)
    assert float(result.item()) > 0
