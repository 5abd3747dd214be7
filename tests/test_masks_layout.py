"""Tests for the Layout container and tiling (repro.masks.layout)."""

import numpy as np
import pytest

from repro.layout.geometry import Rect
from repro.masks.layout import Layout, Tile, iter_tiles


class TestLayout:
    def test_add_and_query(self):
        layout = Layout(extent_nm=1000.0)
        layout.add("M1", Rect(0, 0, 100, 50))
        layout.add("M1", Rect(200, 200, 50, 50))
        layout.add("V1", Rect(10, 10, 20, 20))
        assert sorted(layout.layers) == ["M1", "V1"]
        assert layout.shapes("M1") == [Rect(0, 0, 100, 50),
                                       Rect(200, 200, 50, 50)]
        assert layout.shapes("M2") == []

    def test_invalid_extent(self):
        with pytest.raises(ValueError):
            Layout(extent_nm=0.0)

    def test_clip_translates_coordinates(self):
        layout = Layout(extent_nm=1000.0)
        layout.add("M1", Rect(450, 450, 100, 100))
        clipped = layout.clip(400, 400, 200)
        shapes = clipped.shapes("M1")
        assert len(shapes) == 1
        assert (shapes[0].x, shapes[0].y) == (50, 50)

    def test_clip_cuts_partially_overlapping_shapes(self):
        layout = Layout(extent_nm=1000.0)
        layout.add("M1", Rect(0, 0, 500, 50))
        clipped = layout.clip(400, 0, 200)
        shapes = clipped.shapes("M1")
        assert len(shapes) == 1
        assert shapes[0].width == pytest.approx(100)

    def test_clip_excludes_outside_shapes(self):
        layout = Layout(extent_nm=1000.0)
        layout.add("M1", Rect(0, 0, 50, 50))
        assert layout.clip(500, 500, 100).layers == {}

    def test_clip_invalid_size(self):
        with pytest.raises(ValueError):
            Layout(extent_nm=100.0).clip(0, 0, 0)

    def test_rasterize_layer(self):
        layout = Layout(extent_nm=640.0)
        layout.add("M1", Rect(0, 0, 320, 640))
        mask = layout.rasterize("M1", tile_size_px=8)
        np.testing.assert_allclose(mask[:, :4], 1.0)
        np.testing.assert_allclose(mask[:, 4:], 0.0)

    def test_rasterize_missing_layer_is_empty(self):
        layout = Layout(extent_nm=640.0)
        assert layout.rasterize("M9", 8).sum() == 0


class TestTiles:
    def test_tile_properties(self):
        tile = Tile(mask=np.zeros((16, 16)), layer="M1", dataset="B1", index=0, pixel_size_nm=8.0)
        assert tile.tile_size_px == 16
        assert tile.extent_nm == 128.0

    def test_iter_tiles_covers_layout(self):
        layout = Layout(extent_nm=2000.0)
        layout.add("M1", Rect(0, 0, 2000, 100))
        tiles = list(iter_tiles(layout, "M1", tile_size_px=16, tile_extent_nm=1000.0))
        assert len(tiles) == 4
        assert {t.index for t in tiles} == {0, 1, 2, 3}
        # the horizontal bar lives in the first row of tiles only
        assert tiles[0].mask.sum() > 0
        assert tiles[3].mask.sum() == 0

    def test_iter_tiles_invalid_extent(self):
        layout = Layout(extent_nm=100.0)
        with pytest.raises(ValueError):
            list(iter_tiles(layout, "M1", 8, 0.0))
