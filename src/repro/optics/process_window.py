"""Process-window analysis: focus-exposure matrices, CD extraction and window size.

Lithographers qualify a process by printing a critical feature through a
matrix of focus and exposure-dose conditions and measuring the printed
critical dimension (CD).  The process window is the set of (dose, focus)
conditions that keep the CD within a tolerance band.  This module provides
the CD extraction and the window summary; the focus-exposure matrix itself
is run by :class:`repro.sweep.ProcessWindowSweep` — which, because the engine
only needs a kernel bank, works just as well with kernels learned by Nitho
(a natural downstream application of the paper's fast-lithography claim).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np


def longest_printed_run(line: np.ndarray) -> int:
    """Length of the longest contiguous ``True`` run in a boolean line.

    Vectorised run-length scan: pad the indicator with zeros, then the
    ``np.diff`` of the padding is ``+1`` exactly at run starts and ``-1``
    exactly at run ends, so run lengths are the element-wise difference of
    the two edge-position arrays.  This sits inside every point of a
    process-window sweep, where the Python-loop scan it replaces dominated
    the per-condition cost for wide layouts.
    """
    line = np.asarray(line, dtype=bool)
    if line.ndim != 1:
        raise ValueError("line must be 1-D")
    edges = np.diff(np.concatenate(([0], line.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    if starts.size == 0:
        return 0
    ends = np.flatnonzero(edges == -1)
    return int((ends - starts).max())


def widest_feature_row(resist: np.ndarray) -> int:
    """Row holding the widest printed feature (centre row if nothing prints).

    Process-window sweeps over whole layouts need a deterministic row to
    track one feature through every (focus, dose) condition; the widest
    printed run at the nominal condition is a robust, orientation-free pick.
    """
    resist = np.asarray(resist)
    if resist.ndim != 2:
        raise ValueError("resist must be a 2-D image")
    binary = resist > 0.5
    runs = [longest_printed_run(line) for line in binary]
    if max(runs) == 0:
        return resist.shape[0] // 2
    return int(np.argmax(runs))


def measure_cd(resist: np.ndarray, row: Optional[int] = None,
               pixel_size_nm: float = 1.0) -> float:
    """Measure the printed critical dimension along one image row.

    The CD is the length of the widest contiguous printed run on the chosen
    row (the centre row by default), in nanometres.  Returns 0.0 when nothing
    prints on that row.
    """
    resist = np.asarray(resist)
    if resist.ndim != 2:
        raise ValueError("resist must be a 2-D image")
    if row is None:
        row = resist.shape[0] // 2
    if not 0 <= row < resist.shape[0]:
        raise ValueError(f"row {row} outside image of height {resist.shape[0]}")
    return longest_printed_run(resist[row] > 0.5) * pixel_size_nm


@dataclass(frozen=True)
class FocusExposurePoint:
    """One condition of the focus-exposure matrix."""

    focus_nm: float
    dose: float
    cd_nm: float


@dataclass(frozen=True)
class ProcessWindowResult:
    """Focus-exposure matrix plus the derived process-window summary."""

    points: Tuple[FocusExposurePoint, ...]
    target_cd_nm: float
    tolerance: float

    def cd_matrix(self) -> Dict[float, Dict[float, float]]:
        """CD values organised as matrix[focus][dose]."""
        matrix: Dict[float, Dict[float, float]] = {}
        for point in self.points:
            matrix.setdefault(point.focus_nm, {})[point.dose] = point.cd_nm
        return matrix

    def in_spec(self, point: FocusExposurePoint) -> bool:
        lower = self.target_cd_nm * (1.0 - self.tolerance)
        upper = self.target_cd_nm * (1.0 + self.tolerance)
        return lower <= point.cd_nm <= upper

    def window_fraction(self) -> float:
        """Fraction of the sampled (focus, dose) conditions that stay within tolerance."""
        if not self.points:
            return 0.0
        return sum(1 for point in self.points if self.in_spec(point)) / len(self.points)

    def depth_of_focus_nm(self, dose: float) -> float:
        """Extent of the focus range that stays in spec at the given dose."""
        in_spec_focus = [point.focus_nm for point in self.points
                        if point.dose == dose and self.in_spec(point)]
        if not in_spec_focus:
            return 0.0
        return max(in_spec_focus) - min(in_spec_focus)

    def exposure_latitude(self, focus_nm: float = 0.0) -> float:
        """Relative dose range (max/min - 1) that stays in spec at the given focus."""
        doses = [point.dose for point in self.points
                 if point.focus_nm == focus_nm and self.in_spec(point)]
        if not doses:
            return 0.0
        return max(doses) / min(doses) - 1.0
