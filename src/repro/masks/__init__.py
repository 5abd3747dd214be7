"""Mask / layout substrate: generators, OPC and dataset assembly (geometry
primitives are re-exported from :mod:`repro.layout.geometry`)."""

from ..layout.geometry import Polygon, Rect, mask_density, rasterize
from .datasets import (
    PRESETS,
    DatasetSpec,
    LithoDataset,
    build_benchmark_suite,
    build_dataset,
    merge_datasets,
)
from .generators import (
    DesignRules,
    ICCAD2013Generator,
    ISPDMetalGenerator,
    ISPDViaGenerator,
    MaskGenerator,
    make_generator,
)
from .io import load_dataset, load_layout, save_dataset, save_layout
from .layout import Layout, Tile, iter_tiles
from .opc import ILTRefiner, RuleOPCSettings, apply_opc, rule_based_opc

__all__ = [
    "Rect", "Polygon", "rasterize", "mask_density",
    "Layout", "Tile", "iter_tiles",
    "MaskGenerator", "ICCAD2013Generator", "ISPDMetalGenerator", "ISPDViaGenerator",
    "DesignRules", "make_generator",
    "RuleOPCSettings", "rule_based_opc", "ILTRefiner", "apply_opc",
    "LithoDataset", "DatasetSpec", "PRESETS", "build_dataset", "build_benchmark_suite",
    "merge_datasets",
    "save_layout", "load_layout", "save_dataset", "load_dataset",
]
