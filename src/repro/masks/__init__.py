"""Mask substrate: generators, OPC and dataset assembly (geometry
primitives are re-exported from :mod:`repro.layout.geometry`).

No layout container lives here: a layout is the ``{layer: [Rect | Polygon]}``
mapping plus an extent that :class:`repro.layout.GeometryLayoutReader`
rasterises window by window, and :func:`repro.layout.save_layout` writes.
"""

from ..layout.geometry import Polygon, Rect, rasterize
from .datasets import (
    PRESETS,
    DatasetSpec,
    LithoDataset,
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
from .io import load_dataset, save_dataset
from .opc import ILTRefiner, RuleOPCSettings, apply_opc, rule_based_opc

__all__ = [
    "Rect", "Polygon", "rasterize",
    "MaskGenerator", "ICCAD2013Generator", "ISPDMetalGenerator", "ISPDViaGenerator",
    "DesignRules", "make_generator",
    "RuleOPCSettings", "rule_based_opc", "ILTRefiner", "apply_opc",
    "LithoDataset", "DatasetSpec", "PRESETS", "build_dataset", "merge_datasets",
    "save_dataset", "load_dataset",
]
