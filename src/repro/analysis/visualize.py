"""Lightweight visual dumps (Fig. 2b / Fig. 4) without matplotlib.

Images are written as plain-text ASCII art or binary PGM files so results can
be inspected in any environment.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from ..utils.imaging import ascii_image, write_pgm


def comparison_panel(images: Dict[str, np.ndarray], width: int = 48) -> str:
    """Stacked ASCII renderings with captions (one panel of Fig. 4)."""
    panels = []
    for caption, image in images.items():
        panels.append(caption)
        panels.append(ascii_image(image, width=width))
        panels.append("")
    return "\n".join(panels)


def save_comparison_pgms(images: Dict[str, np.ndarray], directory: str,
                         prefix: str = "panel") -> Dict[str, str]:
    """Write every image of a comparison panel as a PGM file; returns name -> path."""
    paths = {}
    for caption, image in images.items():
        safe = caption.lower().replace(" ", "_").replace("/", "-")
        paths[caption] = write_pgm(image, os.path.join(directory, f"{prefix}_{safe}.pgm"))
    return paths
