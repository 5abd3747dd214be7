"""Experiment-scale configuration shared by every table / figure driver.

All experiments run at one of three presets; the preset fixes the dataset
sizes (see :data:`repro.masks.datasets.PRESETS`), the tile geometry and the
training budgets of the three models.  ``tiny`` finishes in seconds and is
used by the unit tests; ``small`` is the default for the benchmark harness;
``default`` takes the longest and is closest to the paper's scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict

from ..core.nitho import NithoConfig
from ..masks.datasets import PRESETS, DatasetSpec
from ..optics.simulator import OpticsConfig


@dataclass(frozen=True)
class ModelBudgets:
    """Training budgets for the three models at one preset."""

    nitho_epochs: int
    nitho_kernels: int
    nitho_hidden: int
    nitho_blocks: int
    nitho_rff_features: int
    baseline_epochs: int
    baseline_work_resolution: int
    baseline_channels: int
    doinn_modes: int


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment driver needs: preset name, geometry and budgets."""

    preset: str = "tiny"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset '{self.preset}', expected one of {sorted(PRESETS)}")

    @property
    def dataset_specs(self) -> Dict[str, DatasetSpec]:
        return PRESETS[self.preset]

    @property
    def tile_size_px(self) -> int:
        return self.dataset_specs["B1"].tile_size_px

    @property
    def pixel_size_nm(self) -> float:
        return self.dataset_specs["B1"].pixel_size_nm

    @property
    def budgets(self) -> ModelBudgets:
        table = {
            "tiny": ModelBudgets(nitho_epochs=80, nitho_kernels=12, nitho_hidden=40,
                                 nitho_blocks=2, nitho_rff_features=48, baseline_epochs=60,
                                 baseline_work_resolution=32, baseline_channels=10,
                                 doinn_modes=8),
            "small": ModelBudgets(nitho_epochs=300, nitho_kernels=20, nitho_hidden=64,
                                  nitho_blocks=2, nitho_rff_features=64, baseline_epochs=80,
                                  baseline_work_resolution=32, baseline_channels=12,
                                  doinn_modes=8),
            "default": ModelBudgets(nitho_epochs=700, nitho_kernels=24, nitho_hidden=64,
                                    nitho_blocks=3, nitho_rff_features=64, baseline_epochs=150,
                                    baseline_work_resolution=64, baseline_channels=16,
                                    doinn_modes=10),
        }
        return table[self.preset]

    def optics_config(self, resist_threshold: float = 0.225) -> OpticsConfig:
        return OpticsConfig(tile_size_px=self.tile_size_px,
                            pixel_size_nm=self.pixel_size_nm,
                            resist_threshold=resist_threshold)

    def nitho_config(self, **overrides) -> NithoConfig:
        budgets = self.budgets
        settings = dict(
            num_kernels=budgets.nitho_kernels,
            hidden_dim=budgets.nitho_hidden,
            num_hidden_blocks=budgets.nitho_blocks,
            encoding_kwargs={"num_features": budgets.nitho_rff_features},
            epochs=budgets.nitho_epochs,
            batch_size=4,
            learning_rate=8e-3,
            seed=self.seed,
        )
        settings.update(overrides)
        if settings.get("encoding", "rff") != "rff" and "encoding_kwargs" not in overrides:
            # NeRF / identity encodings do not accept the RFF-specific kwargs.
            settings["encoding_kwargs"] = {}
        return NithoConfig(**settings)


def preset_from_environment(default: str = "tiny") -> str:
    """Preset selection for the benchmark harness (``REPRO_PRESET`` env variable)."""
    preset = os.environ.get("REPRO_PRESET", default)
    if preset not in PRESETS:
        raise ValueError(f"REPRO_PRESET={preset!r} is not one of {sorted(PRESETS)}")
    return preset
