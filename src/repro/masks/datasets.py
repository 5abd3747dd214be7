"""Dataset assembly: the B1 / B1opc / B2m / B2v benchmark equivalents (Table II).

Each dataset couples a mask generator with a golden lithography engine:

* B1    — ICCAD-2013-style metal clips imaged by the ``lithosim`` preset,
* B1opc — the B1 *test* masks after OPC (same engine; OOD mask distribution),
* B2m   — ISPD-2019-style metal layers imaged by the ``calibre`` preset,
* B2v   — ISPD-2019-style via layers imaged by the ``calibre`` preset.

The paper's tile/sample counts (Table II) are preserved as relative
proportions; absolute counts scale with the chosen preset so the pipeline
stays runnable on a CPU-only machine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..optics.simulator import LithographySimulator, calibre_like_engine, lithosim_engine
from .generators import MaskGenerator, make_generator
from .opc import apply_opc


@dataclass
class LithoDataset:
    """A named set of mask / aerial / resist tiles split into train and test."""

    name: str
    train_masks: np.ndarray
    train_aerials: np.ndarray
    train_resists: np.ndarray
    test_masks: np.ndarray
    test_aerials: np.ndarray
    test_resists: np.ndarray
    pixel_size_nm: float
    litho_engine: str

    def __post_init__(self) -> None:
        for array_name in ("train_masks", "train_aerials", "train_resists",
                           "test_masks", "test_aerials", "test_resists"):
            value = getattr(self, array_name)
            if value.ndim != 3:
                raise ValueError(f"{array_name} must be a (count, H, W) array")

    @property
    def tile_size_px(self) -> int:
        return self.train_masks.shape[-1] if self.train_masks.size else self.test_masks.shape[-1]

    @property
    def num_train(self) -> int:
        return len(self.train_masks)

    @property
    def num_test(self) -> int:
        return len(self.test_masks)

    def train_fraction(self, fraction: float, seed: int = 0) -> "LithoDataset":
        """Dataset with only ``fraction`` of the training tiles (Fig. 6a sweeps)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        count = max(1, int(round(fraction * self.num_train)))
        rng = np.random.default_rng(seed)
        index = rng.permutation(self.num_train)[:count]
        return replace(self, train_masks=self.train_masks[index],
                       train_aerials=self.train_aerials[index],
                       train_resists=self.train_resists[index])

    def describe(self) -> Dict[str, object]:
        """Row of Table II for this dataset."""
        return {
            "dataset": self.name,
            "train": self.num_train,
            "test": self.num_test,
            "tile_px": self.tile_size_px,
            "pixel_nm": self.pixel_size_nm,
            "litho_engine": self.litho_engine,
        }


@dataclass(frozen=True)
class DatasetSpec:
    """Tile counts and geometry for one dataset build."""

    name: str
    train_count: int
    test_count: int
    tile_size_px: int
    pixel_size_nm: float


#: Relative dataset sizes follow Table II (B1: 4875/10, B2m: 1000/300, B2v: 10000/10000),
#: scaled down so each preset is tractable on CPU.
PRESETS: Dict[str, Dict[str, DatasetSpec]] = {
    "tiny": {
        "B1": DatasetSpec("B1", 8, 4, 64, 16.0),
        "B2m": DatasetSpec("B2m", 6, 4, 64, 16.0),
        "B2v": DatasetSpec("B2v", 8, 4, 64, 16.0),
    },
    "small": {
        "B1": DatasetSpec("B1", 24, 6, 128, 8.0),
        "B2m": DatasetSpec("B2m", 12, 6, 128, 8.0),
        "B2v": DatasetSpec("B2v", 24, 6, 128, 8.0),
    },
    "default": {
        "B1": DatasetSpec("B1", 96, 10, 256, 8.0),
        "B2m": DatasetSpec("B2m", 40, 12, 256, 8.0),
        "B2v": DatasetSpec("B2v", 96, 48, 256, 8.0),
    },
}


def _simulate_batch(masks: np.ndarray, simulator: LithographySimulator) -> Tuple[np.ndarray, np.ndarray]:
    aerials = simulator.aerial_batch(np.asarray(masks, dtype=float))
    resists = simulator.resist_model.develop(aerials)
    return aerials, resists


def _engine_for(name: str, spec: DatasetSpec) -> Tuple[LithographySimulator, str]:
    if name.startswith("B1"):
        return (lithosim_engine(tile_size_px=spec.tile_size_px,
                                pixel_size_nm=spec.pixel_size_nm), "Lithosim")
    return (calibre_like_engine(tile_size_px=spec.tile_size_px,
                                pixel_size_nm=spec.pixel_size_nm), "Calibre-like")


def _generator_for(name: str, spec: DatasetSpec, seed: int) -> MaskGenerator:
    family = "B1" if name.startswith("B1") else name  # B1opc too
    return make_generator(family, spec.tile_size_px, spec.pixel_size_nm, seed=seed)


def build_dataset(name: str, preset: str = "tiny", seed: int = 0,
                  spec: Optional[DatasetSpec] = None) -> LithoDataset:
    """Build one of the benchmark datasets (``B1``, ``B1opc``, ``B2m``, ``B2v``).

    ``B1opc`` reuses the B1 test masks, applies OPC to them, and re-images the
    corrected masks with the same engine (as in the paper, it is test-only).
    """
    if spec is None:
        try:
            preset_specs = PRESETS[preset]
        except KeyError as exc:
            raise ValueError(f"unknown preset '{preset}', expected one of {sorted(PRESETS)}") from exc
        base_name = "B1" if name.startswith("B1") else name
        if base_name not in preset_specs:
            raise ValueError(f"unknown dataset '{name}'")
        spec = preset_specs[base_name]

    simulator, engine_name = _engine_for(name, spec)

    if name == "B1opc":
        base = build_dataset("B1", preset=preset, seed=seed, spec=spec)
        opc_masks = apply_opc(base.test_masks, simulator=simulator, seed=seed)
        aerials, resists = _simulate_batch(opc_masks, simulator)
        empty = np.zeros((0, spec.tile_size_px, spec.tile_size_px))
        return LithoDataset(name="B1opc",
                            train_masks=empty, train_aerials=empty.copy(),
                            train_resists=empty.copy(),
                            test_masks=opc_masks, test_aerials=aerials, test_resists=resists,
                            pixel_size_nm=spec.pixel_size_nm, litho_engine=engine_name)

    generator = _generator_for(name, spec, seed)
    train_masks = generator.generate(spec.train_count)
    test_masks = generator.generate(spec.test_count)
    train_aerials, train_resists = _simulate_batch(train_masks, simulator)
    test_aerials, test_resists = _simulate_batch(test_masks, simulator)
    return LithoDataset(name=name,
                        train_masks=train_masks, train_aerials=train_aerials,
                        train_resists=train_resists,
                        test_masks=test_masks, test_aerials=test_aerials,
                        test_resists=test_resists,
                        pixel_size_nm=spec.pixel_size_nm, litho_engine=engine_name)


def merge_datasets(first: LithoDataset, second: LithoDataset, name: Optional[str] = None) -> LithoDataset:
    """Concatenate two datasets (the paper's mixed "B2m + B2v" evaluation)."""
    if first.tile_size_px != second.tile_size_px:
        raise ValueError("datasets with different tile sizes cannot be merged")
    if first.pixel_size_nm != second.pixel_size_nm:
        raise ValueError("datasets with different pixel sizes cannot be merged")
    return LithoDataset(
        name=name or f"{first.name}+{second.name}",
        train_masks=np.concatenate([first.train_masks, second.train_masks], axis=0),
        train_aerials=np.concatenate([first.train_aerials, second.train_aerials], axis=0),
        train_resists=np.concatenate([first.train_resists, second.train_resists], axis=0),
        test_masks=np.concatenate([first.test_masks, second.test_masks], axis=0),
        test_aerials=np.concatenate([first.test_aerials, second.test_aerials], axis=0),
        test_resists=np.concatenate([first.test_resists, second.test_resists], axis=0),
        pixel_size_nm=first.pixel_size_nm,
        litho_engine=f"{first.litho_engine}/{second.litho_engine}",
    )
