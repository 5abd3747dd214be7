"""Shared fixtures: tiny optical configurations, simulators and datasets.

Everything here is sized so the full unit-test suite runs in a couple of
minutes on CPU; the benchmark harness (``benchmarks/``) uses larger presets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NithoConfig, NithoModel
from repro.masks import ICCAD2013Generator, ISPDMetalGenerator, ISPDViaGenerator
from repro.optics import LithographySimulator, OpticsConfig, CircularSource
from repro.optics.simulator import lithosim_engine

TINY_TILE = 48
TINY_PIXEL_NM = 20.0


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_optics() -> OpticsConfig:
    """Very small optical configuration shared by most optics / core tests."""
    return OpticsConfig(tile_size_px=TINY_TILE, pixel_size_nm=TINY_PIXEL_NM,
                        resist_threshold=0.225, max_socs_order=16)


@pytest.fixture(scope="session")
def tiny_simulator(tiny_optics) -> LithographySimulator:
    return LithographySimulator(config=tiny_optics, source=CircularSource(sigma=0.6))


@pytest.fixture(scope="session")
def tiny_masks() -> np.ndarray:
    generator = ICCAD2013Generator(TINY_TILE, TINY_PIXEL_NM, seed=7)
    return generator.generate(4)


@pytest.fixture(scope="session")
def tiny_metal_masks() -> np.ndarray:
    generator = ISPDMetalGenerator(TINY_TILE, TINY_PIXEL_NM, seed=7)
    return generator.generate(4)


@pytest.fixture(scope="session")
def tiny_via_masks() -> np.ndarray:
    generator = ISPDViaGenerator(TINY_TILE, TINY_PIXEL_NM, seed=7)
    return generator.generate(4)


@pytest.fixture(scope="session")
def tiny_aerials(tiny_simulator, tiny_masks) -> np.ndarray:
    return np.stack([tiny_simulator.aerial(mask) for mask in tiny_masks], axis=0)


@pytest.fixture(scope="session")
def tiny_resists(tiny_simulator, tiny_aerials) -> np.ndarray:
    return np.stack([tiny_simulator.resist_model.develop(a) for a in tiny_aerials], axis=0)


@pytest.fixture(scope="session")
def quick_nitho_config() -> NithoConfig:
    """Nitho configuration small enough for per-test training."""
    return NithoConfig(num_kernels=10, hidden_dim=32, num_hidden_blocks=1,
                       epochs=90, batch_size=2, learning_rate=1e-2,
                       encoding_kwargs={"num_features": 32},
                       seed=0)


@pytest.fixture(scope="session")
def trained_tiny_nitho(tiny_optics, quick_nitho_config, tiny_masks, tiny_aerials) -> NithoModel:
    """One Nitho model trained once and reused by read-only tests."""
    model = NithoModel(tiny_optics, quick_nitho_config)
    model.fit(tiny_masks, tiny_aerials)
    return model


@pytest.fixture(scope="session")
def small_engine() -> LithographySimulator:
    """A 32-pixel engine for tests that only need a coarse golden image."""
    return lithosim_engine(tile_size_px=32, pixel_size_nm=32.0)
