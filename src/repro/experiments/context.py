"""Shared experiment context: datasets and trained models, built once per preset.

Several tables reuse the same artefacts (Table III and Table IV evaluate the
same trained models; Fig. 4 and Fig. 2b visualise them).  The context caches
datasets and per-dataset trained models so a full experiment run — or a
pytest-benchmark session touching several tables — only pays each training
cost once.
"""

from __future__ import annotations

from typing import Dict, Optional


from ..baselines import DoinnModel, TempoModel
from ..core import NithoModel
from ..masks.datasets import LithoDataset, build_dataset, merge_datasets
from .config import ExperimentConfig

#: Model display names in the order the paper's tables use.
MODEL_NAMES = ("TEMPO", "DOINN", "Nitho")


class ExperimentContext:
    """Lazy cache of datasets and trained models for one experiment configuration."""

    def __init__(self, config: Optional[ExperimentConfig] = None):
        self.config = config or ExperimentConfig()
        self._datasets: Dict[str, LithoDataset] = {}
        self._models: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------ #
    # datasets
    # ------------------------------------------------------------------ #
    def dataset(self, name: str) -> LithoDataset:
        """Return (building and caching on first use) one of the benchmark datasets."""
        if name not in self._datasets:
            if name == "B2m+B2v":
                merged = merge_datasets(self.dataset("B2m"), self.dataset("B2v"))
                self._datasets[name] = merged
            else:
                seed_offset = {"B1": 0, "B1opc": 0, "B2m": 1, "B2v": 2}.get(name, 3)
                self._datasets[name] = build_dataset(
                    name, preset=self.config.preset, seed=self.config.seed + seed_offset)
        return self._datasets[name]

    # ------------------------------------------------------------------ #
    # model factories
    # ------------------------------------------------------------------ #
    def make_model(self, model_name: str, **overrides):
        """Fresh, untrained model of the requested family at experiment scale."""
        budgets = self.config.budgets
        threshold = 0.225
        if model_name == "Nitho":
            return NithoModel(self.config.optics_config(threshold),
                              self.config.nitho_config(**overrides))
        if model_name == "TEMPO":
            return TempoModel(work_resolution=budgets.baseline_work_resolution,
                              base_channels=budgets.baseline_channels,
                              epochs=budgets.baseline_epochs,
                              resist_threshold=threshold,
                              seed=self.config.seed, **overrides)
        if model_name == "DOINN":
            return DoinnModel(work_resolution=budgets.baseline_work_resolution,
                              base_channels=max(budgets.baseline_channels // 2, 4),
                              modes=budgets.doinn_modes,
                              epochs=budgets.baseline_epochs,
                              resist_threshold=threshold,
                              seed=self.config.seed, **overrides)
        raise ValueError(f"unknown model '{model_name}'")

    # ------------------------------------------------------------------ #
    # trained models
    # ------------------------------------------------------------------ #
    def trained_model(self, model_name: str, dataset_name: str):
        """Model of ``model_name`` trained on ``dataset_name`` (cached)."""
        key = f"{model_name}@{dataset_name}"
        cached = self._models.get(key)
        if cached is not None:
            return cached
        dataset = self.dataset(dataset_name)
        if dataset.num_train == 0:
            raise ValueError(f"dataset {dataset_name} has no training tiles")
        model = self.make_model(model_name)
        model.fit(dataset.train_masks, dataset.train_aerials)
        self._models[key] = model
        return model

    def clear(self) -> None:
        """Drop every cached dataset and model (used between test configurations)."""
        self._datasets.clear()
        self._models.clear()


_GLOBAL_CONTEXTS: Dict[str, ExperimentContext] = {}


def get_context(preset: str = "tiny", seed: int = 0) -> ExperimentContext:
    """Process-wide shared context per (preset, seed) pair."""
    key = f"{preset}:{seed}"
    if key not in _GLOBAL_CONTEXTS:
        _GLOBAL_CONTEXTS[key] = ExperimentContext(ExperimentConfig(preset=preset, seed=seed))
    return _GLOBAL_CONTEXTS[key]
