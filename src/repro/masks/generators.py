"""Synthetic mask-tile generators standing in for the paper's benchmark layouts.

Three families are produced, mirroring the distribution differences visible in
the paper's t-SNE plot (Fig. 2a):

* :class:`ICCAD2013Generator` — contest-style metal-1 clips: a few isolated
  rectilinear features (lines, L/T shapes, line-ends) per tile,
* :class:`ISPDMetalGenerator` — routed metal layers: dense parallel tracks on a
  routing grid with occasional jogs,
* :class:`ISPDViaGenerator` — via/contact layers: many small square cuts placed
  on grid intersections.

All generators obey simple minimum width / spacing rules, are fully seeded and
return binary masks in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..layout.geometry import Rect, rasterize


class MaskGenerator:
    """Base class for seeded tile generators."""

    #: human-readable dataset family name ("B1", "B2m", "B2v")
    family: str = "generic"

    def __init__(self, tile_size_px: int = 256, pixel_size_nm: float = 4.0, seed: int = 0):
        if tile_size_px <= 0 or pixel_size_nm <= 0:
            raise ValueError("tile size and pixel size must be positive")
        self.tile_size_px = tile_size_px
        self.pixel_size_nm = pixel_size_nm
        self.rng = np.random.default_rng(seed)

    @property
    def extent_nm(self) -> float:
        return self.tile_size_px * self.pixel_size_nm

    def sample_shapes(self) -> List[Rect]:
        raise NotImplementedError

    def sample(self) -> np.ndarray:
        """One binary mask tile."""
        shapes = self.sample_shapes()
        return rasterize(shapes, self.tile_size_px, self.pixel_size_nm)

    def generate(self, count: int) -> np.ndarray:
        """Stack of ``count`` mask tiles, shape ``(count, tile, tile)``."""
        if count <= 0:
            raise ValueError("count must be positive")
        return np.stack([self.sample() for _ in range(count)], axis=0)


@dataclass(frozen=True)
class DesignRules:
    """Minimal design-rule set used by the generators (all values in nm)."""

    min_width: float = 32.0
    min_space: float = 32.0
    min_area: float = 2048.0

    def __post_init__(self) -> None:
        if self.min_width <= 0 or self.min_space <= 0:
            raise ValueError("design rules must be positive")


class ICCAD2013Generator(MaskGenerator):
    """ICCAD-2013-style metal clips: sparse rectilinear features on an empty field."""

    family = "B1"

    def __init__(self, tile_size_px: int = 256, pixel_size_nm: float = 4.0, seed: int = 0,
                 rules: Optional[DesignRules] = None,
                 min_features: int = 3, max_features: int = 7):
        super().__init__(tile_size_px, pixel_size_nm, seed)
        self.rules = rules or DesignRules()
        if min_features <= 0 or max_features < min_features:
            raise ValueError("feature counts must satisfy 0 < min <= max")
        self.min_features = min_features
        self.max_features = max_features

    def _random_feature(self) -> List[Rect]:
        """One feature: a bar, an L-shape or a T-shape built from overlapping bars."""
        extent = self.extent_nm
        rules = self.rules
        width = float(self.rng.uniform(rules.min_width, 2.5 * rules.min_width))
        length = float(self.rng.uniform(4 * rules.min_width, 0.45 * extent))
        x = float(self.rng.uniform(0.05 * extent, 0.95 * extent - length))
        y = float(self.rng.uniform(0.05 * extent, 0.95 * extent - length))
        horizontal = bool(self.rng.random() < 0.5)
        if horizontal:
            main = Rect(x, y, length, width)
        else:
            main = Rect(x, y, width, length)
        shapes = [main]
        style = self.rng.random()
        if style < 0.35:            # L-shape: orthogonal bar at one end
            arm = float(self.rng.uniform(3 * rules.min_width, 0.3 * extent))
            if horizontal:
                shapes.append(Rect(main.x2 - width, main.y, width, min(arm, extent - main.y)))
            else:
                shapes.append(Rect(main.x, main.y2 - width, min(arm, extent - main.x), width))
        elif style < 0.5:           # T-shape: orthogonal bar at the middle
            arm = float(self.rng.uniform(3 * rules.min_width, 0.25 * extent))
            cx, cy = main.centre
            if horizontal:
                shapes.append(Rect(cx - width / 2, main.y, width, min(arm, extent - main.y)))
            else:
                shapes.append(Rect(main.x, cy - width / 2, min(arm, extent - main.x), width))
        return shapes

    def sample_shapes(self) -> List[Rect]:
        target_features = int(self.rng.integers(self.min_features, self.max_features + 1))
        placed: List[Rect] = []
        features_placed = 0
        attempts = 0
        while features_placed < target_features and attempts < target_features * 12:
            attempts += 1
            candidate = self._random_feature()
            boxes = [rect.expanded(self.rules.min_space / 2.0) for rect in candidate]
            collision = any(box.intersects(existing) for box in boxes for existing in placed)
            if not collision:
                placed.extend(candidate)
                features_placed += 1
        return placed


class ISPDMetalGenerator(MaskGenerator):
    """ISPD-2019-style routed metal: dense parallel tracks with jogs and cuts."""

    family = "B2m"

    def __init__(self, tile_size_px: int = 256, pixel_size_nm: float = 4.0, seed: int = 0,
                 track_pitch_nm: float = 128.0, wire_width_nm: float = 48.0,
                 fill_probability: float = 0.7):
        super().__init__(tile_size_px, pixel_size_nm, seed)
        if track_pitch_nm <= wire_width_nm:
            raise ValueError("track pitch must exceed wire width")
        if not 0.0 < fill_probability <= 1.0:
            raise ValueError("fill_probability must be in (0, 1]")
        self.track_pitch_nm = track_pitch_nm
        self.wire_width_nm = wire_width_nm
        self.fill_probability = fill_probability

    def sample_shapes(self) -> List[Rect]:
        extent = self.extent_nm
        horizontal = bool(self.rng.random() < 0.5)
        tracks = int(extent // self.track_pitch_nm)
        shapes: List[Rect] = []
        for track in range(tracks):
            if self.rng.random() > self.fill_probability:
                continue
            offset = track * self.track_pitch_nm + (self.track_pitch_nm - self.wire_width_nm) / 2
            # Split the track into 1-3 wire segments separated by cuts.
            segments = int(self.rng.integers(1, 4))
            cut_points = np.sort(self.rng.uniform(0.1, 0.9, size=segments - 1)) * extent
            boundaries = np.concatenate([[0.0], cut_points, [extent]])
            for start, stop in zip(boundaries[:-1], boundaries[1:]):
                gap = self.wire_width_nm  # leave a line-end gap at cuts
                seg_start, seg_stop = start + gap / 2, stop - gap / 2
                if seg_stop - seg_start < 2 * self.wire_width_nm:
                    continue
                if horizontal:
                    shapes.append(Rect(seg_start, offset, seg_stop - seg_start, self.wire_width_nm))
                else:
                    shapes.append(Rect(offset, seg_start, self.wire_width_nm, seg_stop - seg_start))
        # Occasional orthogonal jog connecting two adjacent tracks.
        jogs = int(self.rng.integers(0, 3))
        for _ in range(jogs):
            position = float(self.rng.uniform(0.1, 0.9) * extent)
            track = int(self.rng.integers(0, max(tracks - 1, 1)))
            offset = track * self.track_pitch_nm + (self.track_pitch_nm - self.wire_width_nm) / 2
            length = self.track_pitch_nm + self.wire_width_nm
            if horizontal:
                shapes.append(Rect(position, offset, self.wire_width_nm, length))
            else:
                shapes.append(Rect(offset, position, length, self.wire_width_nm))
        return shapes


class ISPDViaGenerator(MaskGenerator):
    """ISPD-2019-style via layer: small square cuts on routing-grid intersections."""

    family = "B2v"

    def __init__(self, tile_size_px: int = 256, pixel_size_nm: float = 4.0, seed: int = 0,
                 grid_pitch_nm: float = 160.0, via_size_nm: float = 90.0,
                 occupancy: float = 0.3):
        super().__init__(tile_size_px, pixel_size_nm, seed)
        if via_size_nm >= grid_pitch_nm:
            raise ValueError("via size must be smaller than the grid pitch")
        if not 0.0 < occupancy <= 1.0:
            raise ValueError("occupancy must be in (0, 1]")
        self.grid_pitch_nm = grid_pitch_nm
        self.via_size_nm = via_size_nm
        self.occupancy = occupancy

    def sample_shapes(self) -> List[Rect]:
        extent = self.extent_nm
        points = int(extent // self.grid_pitch_nm)
        shapes: List[Rect] = []
        for row in range(points):
            for col in range(points):
                if self.rng.random() > self.occupancy:
                    continue
                cx = (col + 0.5) * self.grid_pitch_nm
                cy = (row + 0.5) * self.grid_pitch_nm
                size = self.via_size_nm
                # A fraction of vias are "bar" vias (doubled cuts).
                if self.rng.random() < 0.1:
                    shapes.append(Rect(cx - size, cy - size / 2, 2 * size, size))
                else:
                    shapes.append(Rect(cx - size / 2, cy - size / 2, size, size))
        if not shapes:
            # Guarantee at least one via so the tile is never empty.
            centre = extent / 2
            shapes.append(Rect(centre - self.via_size_nm / 2, centre - self.via_size_nm / 2,
                               self.via_size_nm, self.via_size_nm))
        return shapes


def make_generator(family: str, tile_size_px: int = 256, pixel_size_nm: float = 4.0,
                   seed: int = 0) -> MaskGenerator:
    """Factory keyed by dataset family alias (``B1``, ``B2m``, ``B2v``)."""
    registry = {
        "b1": ICCAD2013Generator,
        "b2m": ISPDMetalGenerator,
        "b2v": ISPDViaGenerator,
    }
    try:
        cls = registry[family.lower()]
    except KeyError as exc:
        raise ValueError(f"unknown generator family '{family}'") from exc
    return cls(tile_size_px=tile_size_px, pixel_size_nm=pixel_size_nm, seed=seed)
