"""Resist models: constant-threshold binarisation and a smooth sigmoid variant.

The paper obtains resist images by applying an exposure-dose-dependent
intensity threshold to the aerial image; the sigmoid variant is provided for
differentiable flows (e.g. the ILT pass of the OPC substrate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConstantThresholdResist:
    """Binary resist model ``Z = (I > threshold)``."""

    threshold: float = 0.225

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("resist threshold must be positive")

    def develop(self, aerial: np.ndarray) -> np.ndarray:
        """Binary resist pattern (1 = printed / exposed region)."""
        return (aerial > self.threshold).astype(np.uint8)
