"""Persistence for benchmark datasets.

Real benchmark suites ship pre-computed golden images; this module provides
the equivalent for the synthetic reproduction so expensive dataset builds
(and trained-model inputs) can be generated once and reused: a dataset is a
single compressed ``.npz`` archive with all six image stacks and the
metadata needed to rebuild the :class:`~repro.masks.datasets.LithoDataset`.
Layouts are not datasets: :func:`repro.layout.save_layout` writes the
repro-layout JSON next to its reader.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import numpy as np

from .datasets import LithoDataset

_DATASET_FORMAT_VERSION = 1


def save_dataset(dataset: LithoDataset, path: str) -> str:
    """Write a dataset (all six image stacks + metadata) as a compressed ``.npz``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    metadata = json.dumps({
        "format": "repro-dataset",
        "version": _DATASET_FORMAT_VERSION,
        "name": dataset.name,
        "pixel_size_nm": dataset.pixel_size_nm,
        "litho_engine": dataset.litho_engine,
    })
    np.savez_compressed(
        path,
        metadata=np.array(metadata),
        train_masks=dataset.train_masks,
        train_aerials=dataset.train_aerials,
        train_resists=dataset.train_resists,
        test_masks=dataset.test_masks,
        test_aerials=dataset.test_aerials,
        test_resists=dataset.test_resists,
    )
    return path


def load_dataset(path: str) -> LithoDataset:
    """Read a dataset written by :func:`save_dataset`."""
    with np.load(path, allow_pickle=False) as archive:
        try:
            metadata = json.loads(str(archive["metadata"]))
        except KeyError as exc:
            raise ValueError(f"{path} is not a repro dataset archive") from exc
        if metadata.get("format") != "repro-dataset":
            raise ValueError(f"{path} is not a repro dataset archive")
        if metadata.get("version") != _DATASET_FORMAT_VERSION:
            raise ValueError(f"unsupported dataset format version {metadata.get('version')}")
        arrays: Dict[str, np.ndarray] = {key: archive[key] for key in (
            "train_masks", "train_aerials", "train_resists",
            "test_masks", "test_aerials", "test_resists")}
    return LithoDataset(name=metadata["name"],
                        pixel_size_nm=float(metadata["pixel_size_nm"]),
                        litho_engine=metadata["litho_engine"],
                        **arrays)
