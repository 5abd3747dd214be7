"""Tests for geometry primitives and rasterisation (repro.layout.geometry)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layout.geometry import Polygon, Rect, rasterize


class TestRect:
    def test_basic_properties(self):
        rect = Rect(10, 20, 30, 40)
        assert rect.x2 == 40
        assert rect.y2 == 60
        assert rect.area == 1200
        assert rect.centre == (25, 40)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Rect(0, 0, -1, 5)
        with pytest.raises(ValueError):
            Rect(0, 0, 5, 0)

    def test_intersects(self):
        a = Rect(0, 0, 10, 10)
        assert a.intersects(Rect(5, 5, 10, 10))
        assert not a.intersects(Rect(20, 20, 5, 5))
        assert not a.intersects(Rect(10, 0, 5, 5))  # touching edges do not overlap

    def test_expanded_and_shrunk(self):
        rect = Rect(10, 10, 10, 10)
        grown = rect.expanded(5)
        assert (grown.x, grown.y, grown.width, grown.height) == (5, 5, 20, 20)
        with pytest.raises(ValueError):
            rect.expanded(-6)

    def test_rasterised_rect_moves_with_its_origin(self):
        base = rasterize([Rect(8, 8, 16, 24)], 16, 4.0)
        moved = rasterize([Rect(8 + 12, 8 - 4, 16, 24)], 16, 4.0)
        np.testing.assert_array_equal(moved, np.roll(base, (-1, 3),
                                                     axis=(0, 1)))

    @given(x=st.floats(0, 100), y=st.floats(0, 100),
           w=st.floats(1, 50), h=st.floats(1, 50), margin=st.floats(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_expansion_grows_area(self, x, y, w, h, margin):
        rect = Rect(x, y, w, h)
        assert rect.expanded(margin).area >= rect.area


class TestPolygon:
    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon(((0, 0), (1, 1)))

    def test_decomposition_spans_the_vertex_extent(self):
        vertices = ((0, 0), (20, 0), (20, 10), (10, 10), (10, 20), (0, 20))
        rects = Polygon(vertices).to_rects()
        assert min(r.x for r in rects) == 0
        assert min(r.y for r in rects) == 0
        assert max(r.x2 for r in rects) == 20
        assert max(r.y2 for r in rects) == 20

    def test_rectangle_decomposition_of_l_shape(self):
        # L-shape: 20x10 bar plus 10x20 bar sharing a corner.
        vertices = ((0, 0), (20, 0), (20, 10), (10, 10), (10, 20), (0, 20))
        rects = Polygon(vertices).to_rects()
        total_area = sum(r.area for r in rects)
        assert total_area == pytest.approx(20 * 10 + 10 * 10)

    def test_concave_u_shape_decomposition(self):
        # U-shape: 30-wide, 20-tall block with a 10x10 notch cut from the
        # top middle — concave, needs two spans in the middle slab.
        vertices = ((0, 0), (30, 0), (30, 20), (20, 20), (20, 10),
                    (10, 10), (10, 20), (0, 20))
        rects = Polygon(vertices).to_rects()
        assert sum(r.area for r in rects) == pytest.approx(30 * 20 - 10 * 10)
        # the notch interior stays empty: no rect covers its centre
        assert not any(r.x < 15 < r.x2 and r.y < 15 < r.y2 for r in rects)

    def test_t_shape_decomposition(self):
        vertices = ((0, 0), (30, 0), (30, 10), (20, 10), (20, 30),
                    (10, 30), (10, 10), (0, 10))
        rects = Polygon(vertices).to_rects()
        assert sum(r.area for r in rects) == pytest.approx(30 * 10 + 10 * 20)

    def test_degenerate_collinear_polygon_decomposes_to_nothing(self):
        # all vertices on one vertical line: zero-width slabs everywhere
        assert Polygon(((5, 0), (5, 10), (5, 20))).to_rects() == []
        # all vertices on one horizontal line: crossings collapse
        assert Polygon(((0, 5), (10, 5), (20, 5))).to_rects() == []

    def test_zero_area_span_is_skipped_not_raised(self):
        # A pinched bowtie-like ring whose middle slab has coincident
        # crossings: the zero-area span must be skipped, not crash Rect.
        vertices = ((0, 0), (10, 0), (10, 10), (20, 10), (20, 0),
                    (30, 0), (30, 10), (0, 10))
        rects = Polygon(vertices).to_rects()
        assert all(r.area > 0 for r in rects)
        assert sum(r.area for r in rects) == pytest.approx(10 * 10 + 10 * 10)

    def test_zero_height_notch_polygon(self):
        # A rectangle with a zero-height slit recorded in the outline:
        # degrades to the plain rectangle instead of raising.
        vertices = ((0, 0), (30, 0), (30, 10), (15, 10), (15, 10),
                    (0, 10))
        rects = Polygon(vertices).to_rects()
        assert sum(r.area for r in rects) == pytest.approx(30 * 10)

    def test_decomposition_matches_rasterisation(self):
        # The layout reader leans on to_rects: its rasterised union must
        # equal rasterising the same outline's area directly.
        vertices = ((0, 0), (40, 0), (40, 16), (16, 16), (16, 40), (0, 40))
        rects = Polygon(vertices).to_rects()
        mask = rasterize(rects, tile_size_px=10, pixel_size_nm=4.0)
        assert mask.sum() == pytest.approx((40 * 16 + 16 * 24) / 16.0)


class TestRasterize:
    def test_full_tile_rectangle(self):
        mask = rasterize([Rect(0, 0, 64, 64)], tile_size_px=8, pixel_size_nm=8.0)
        np.testing.assert_allclose(mask, 1.0)

    def test_half_tile(self):
        mask = rasterize([Rect(0, 0, 32, 64)], tile_size_px=8, pixel_size_nm=8.0)
        np.testing.assert_allclose(mask[:, :4], 1.0)
        np.testing.assert_allclose(mask[:, 4:], 0.0)

    def test_shape_outside_tile_is_ignored(self):
        mask = rasterize([Rect(1000, 1000, 10, 10)], tile_size_px=8, pixel_size_nm=8.0)
        np.testing.assert_allclose(mask, 0.0)

    def test_shapes_rasterise_to_exactly_their_in_tile_pixels(self):
        """A rectangle partly or fully outside the tile needs no clipping
        first: it sets its in-tile pixels and nothing else."""
        # pixel centres at 4, 12, ..., 60 nm; the tile is [0, 64) nm
        partly = rasterize([Rect(-20, 40, 50, 100)], tile_size_px=8,
                           pixel_size_nm=8.0)
        expected = np.zeros((8, 8))
        expected[5:, :4] = 1.0          # rows 44..60 nm, columns 4..28 nm
        np.testing.assert_array_equal(partly, expected)
        for outside in (Rect(-30, -30, 20, 20), Rect(64, 0, 16, 64),
                        Rect(0, -16, 64, 16), Rect(-5, 70, 80, 5)):
            assert not rasterize([outside], tile_size_px=8,
                                 pixel_size_nm=8.0).any()
        covering = rasterize([Rect(-100, -100, 300, 300)], tile_size_px=8,
                             pixel_size_nm=8.0)
        np.testing.assert_array_equal(covering, np.ones((8, 8)))

    def test_pixel_centre_sampling(self):
        """A rectangle covering less than half the first pixel leaves it dark."""
        mask = rasterize([Rect(0, 0, 3.0, 64)], tile_size_px=8, pixel_size_nm=8.0)
        assert mask[0, 0] == 0.0
        mask = rasterize([Rect(0, 0, 5.0, 64)], tile_size_px=8, pixel_size_nm=8.0)
        assert mask[0, 0] == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            rasterize([], tile_size_px=0, pixel_size_nm=1.0)
        with pytest.raises(ValueError):
            rasterize([], tile_size_px=8, pixel_size_nm=0.0)

    def test_empty_shape_list(self):
        mask = rasterize([], tile_size_px=8, pixel_size_nm=8.0)
        np.testing.assert_allclose(mask, 0.0)

    @given(width=st.floats(8, 120), height=st.floats(8, 120))
    @settings(max_examples=30, deadline=None)
    def test_rasterised_area_tracks_geometric_area(self, width, height):
        pixel = 4.0
        mask = rasterize([Rect(16, 16, width, height)], tile_size_px=64, pixel_size_nm=pixel)
        geometric_pixels = (width / pixel) * (height / pixel)
        assert abs(mask.sum() - geometric_pixels) <= (width + height) / pixel + 4
