"""The test-side oracle for layout imaging: the plainest possible path.

``image_layout`` has exactly one implementation (the batch-by-batch pipeline
in :mod:`repro.engine.streaming`), so a pin of the form "batched == unbatched"
or "cached == uncached" written against ``image_layout`` alone would compare
the pipeline with itself.  :func:`reference_image_layout` is what those pins
compare against instead: cut the full tile stack, image it with one
``aerial_batch`` call, stitch it, develop the whole raster at once — no
batching, no tile cache, no sharding, no incremental stitch.  It shares only
the leaf operations with the pipeline (``extract_tiles`` / ``stitch_tiles``,
pinned as split-inverse by ``tests/test_engine.py``).

It lives under ``tests/`` on purpose: the product keeps one path.
"""

from repro.engine import LayoutImage, extract_tiles, stitch_tiles


def reference_image_layout(engine, layout, tiling=None, *, tile_px=None,
                           guard_px=None) -> LayoutImage:
    """``extract_tiles`` -> ``engine.aerial_batch`` -> ``stitch_tiles`` -> develop.

    ``layout`` is a dense ``(H, W)`` raster (materialise a reader first);
    the tile geometry resolves exactly as ``engine.image_layout`` resolves
    it.  For a sharded run pass the executor's warmed engine
    (``executor.warm(spec)``).
    """
    tiling = engine.resolve_tiling(tiling, tile_px, guard_px)
    layout = engine.precision.as_real(layout)
    tiles, placements = extract_tiles(layout, tiling)
    aerial = stitch_tiles(engine.aerial_batch(tiles), placements,
                          *layout.shape, tiling)
    return LayoutImage(aerial=aerial,
                       resist=engine.resist_model.develop(aerial),
                       tiling=tiling, num_tiles=len(placements))
