"""Persistence for layouts and benchmark datasets.

Real benchmark suites are distributed as layout archives plus pre-computed
golden images; this module provides the equivalent for the synthetic
reproduction so expensive dataset builds (and trained-model inputs) can be
generated once and reused:

* layouts   -> a small JSON format (layer name -> rectangle list, nm units),
* datasets  -> a single compressed ``.npz`` archive with all six image stacks
  and the metadata needed to rebuild the :class:`~repro.masks.datasets.LithoDataset`.
"""

from __future__ import annotations

import json
import os
from typing import Dict

import numpy as np

from ..layout.geometry import Rect
from .datasets import LithoDataset
from .layout import Layout

_LAYOUT_FORMAT_VERSION = 1
_DATASET_FORMAT_VERSION = 1


def _ensure_parent(path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)


# --------------------------------------------------------------------------- #
# layouts
# --------------------------------------------------------------------------- #
def save_layout(layout: Layout, path: str) -> str:
    """Write a layout as JSON; returns the path."""
    document = {
        "format": "repro-layout",
        "version": _LAYOUT_FORMAT_VERSION,
        "extent_nm": layout.extent_nm,
        "layers": {
            layer: [[rect.x, rect.y, rect.width, rect.height] for rect in shapes]
            for layer, shapes in layout.layers.items()
        },
    }
    _ensure_parent(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    return path


def load_layout(path: str) -> Layout:
    """Read a layout written by :func:`save_layout`."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("format") != "repro-layout":
        raise ValueError(f"{path} is not a repro layout file")
    if document.get("version") != _LAYOUT_FORMAT_VERSION:
        raise ValueError(f"unsupported layout format version {document.get('version')}")
    layout = Layout(extent_nm=float(document["extent_nm"]))
    for layer, rects in document.get("layers", {}).items():
        for x, y, width, height in rects:
            layout.add(layer, Rect(float(x), float(y), float(width), float(height)))
    return layout


# --------------------------------------------------------------------------- #
# datasets
# --------------------------------------------------------------------------- #
def save_dataset(dataset: LithoDataset, path: str) -> str:
    """Write a dataset (all six image stacks + metadata) as a compressed ``.npz``."""
    _ensure_parent(path)
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
