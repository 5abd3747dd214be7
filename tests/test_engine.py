"""Regression tests for the unified execution engine layer.

Pinned guarantees:

* the batched core — the one SOCS forward — is numerically equivalent to the
  plain-numpy textbook oracle (``tests/reference.py::reference_aerial``)
  across dtypes, odd tile sizes, truncated kernel orders, block boundaries,
  both per-block bodies (band-limited grid / direct full size) and every
  relation of that grid to ``2n`` (larger, equal, odd and smaller), in every
  backend cell; block size — the one cut of a batch — never changes a tile's bits,
* split -> image -> stitch round-trips arbitrary layouts, is exactly the
  per-tile path when no guard band is needed, and has vanishing seam error
  in the guarded interior; a guard band only crops what the batched core
  images, bit for bit,
* the kernel-bank cache decomposes one float64 bank at most once per optics
  fingerprint per process (and round-trips through disk, written outside
  its lock).
"""

import dataclasses
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    BACKEND_CELLS,
    SHARES,
    TRANSFORMS_ONLY,
    RecordingBackend,
    assert_ran_on_shares,
    band_limited_blocks,
    bank_aerial,
    cell_backend,
    reference_aerial,
    threads_seen,
)
from repro.backend import get_backend, resolve_precision
from repro.engine import (
    ExecutionEngine,
    KernelBankCache,
    TilingSpec,
    batch_chunk_size,
    effective_chunk_tiles,
    extract_tiles,
    optics_fingerprint,
    plan_tiles,
    stitch_tiles,
)
from repro.engine import batched
from repro.engine.batched import band_limit_grid
from repro.engine.cache import default_kernel_cache, describe_component
from repro.engine.tiling import default_guard_px
from repro.optics import OpticsConfig, LithographySimulator
from repro.optics.pupil import Pupil
from repro.optics.socs import SOCSKernels
from repro.optics.source import AnnularSource, CircularSource, PixelatedSource
from repro.utils.imaging import fourier_resize

# A fine-pitch configuration whose kernel window (7x7) is far below the tile
# size, so the band-limited chunk runs (a 14 px grid); the tiny fixtures (48 px
# at 20 nm, a 27x27 window, a 54 px grid) take the direct full-size chunk.
FINE = OpticsConfig(tile_size_px=64, pixel_size_nm=4.0, max_socs_order=None)

@pytest.fixture(scope="module")
def fine_engine():
    return ExecutionEngine.for_optics(FINE, source=CircularSource(sigma=0.6),
                                      cache=KernelBankCache())


# Physically sensible tiling scale: 96 px tiles of 8 nm pixels (768 nm fields,
# several resolution elements across) so guard-band behaviour is meaningful.
PHYSICAL = OpticsConfig(tile_size_px=96, pixel_size_nm=8.0, max_socs_order=24)


@pytest.fixture(scope="module")
def physical_engine():
    return ExecutionEngine.for_optics(PHYSICAL, source=AnnularSource(0.5, 0.8),
                                      cache=KernelBankCache())


@pytest.fixture(scope="module")
def apodized_engine():
    return ExecutionEngine.for_optics(PHYSICAL, source=AnnularSource(0.5, 0.8),
                                      pupil=Pupil(apodization=4.0),
                                      cache=KernelBankCache())


@pytest.fixture(scope="module")
def random_masks():
    return (np.random.default_rng(42).random((6, 64, 64)) > 0.7).astype(float)


def _oracle(masks, kernels):
    return reference_aerial(np.asarray(masks, dtype=float), kernels)


class TestBatchedEquivalence:
    def test_matches_per_tile_path(self, tiny_simulator, tiny_masks):
        kernels = tiny_simulator.kernels.kernels
        reference = _oracle(tiny_masks, kernels)
        batched = bank_aerial(np.asarray(tiny_masks, dtype=float), kernels)
        np.testing.assert_allclose(batched, reference, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    def test_dtypes(self, fine_engine, random_masks, dtype):
        masks = random_masks.astype(dtype)
        reference = _oracle(masks, fine_engine.kernels)
        np.testing.assert_allclose(fine_engine.aerial_batch(masks), reference,
                                   rtol=1e-10, atol=1e-12)

    def test_odd_tile_size(self, fine_engine):
        masks = (np.random.default_rng(3).random((4, 47, 47)) > 0.6).astype(float)
        reference = _oracle(masks, fine_engine.kernels)
        # No calibrated tile: the bank is deliberately imaged at another size.
        uncalibrated = ExecutionEngine(fine_engine.kernels,
                                       fft_backend=fine_engine.backend)
        np.testing.assert_allclose(uncalibrated.aerial_batch(masks), reference,
                                   rtol=1e-10, atol=1e-12)
        with pytest.raises(ValueError, match="47.*64 px tile"):
            fine_engine.aerial_batch(masks)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("shape", [
        (3, 12, 60, 60),   # band-limited blocks of the production bank
        (1, 7, 60, 60),    # one tile, an odd order
        (2, 5, 23, 17),    # the direct body's full-size, odd fields
    ])
    def test_the_intensity_reduction_is_the_sum_of_squared_magnitudes(
            self, dtype, shape):
        """``(sum re^2) + (sum im^2)`` rounds otherwise than ``sum |f|^2``,
        within 1e-15 relative in float64 (4.5 eps of either dtype)."""
        rng = np.random.default_rng(sum(shape))
        fields = (rng.standard_normal(shape)
                  + 1j * rng.standard_normal(shape)).astype(dtype)
        intensity = batched._field_intensity(fields)
        expected = np.sum(np.abs(fields) ** 2, axis=1)
        assert intensity.dtype == expected.dtype
        assert intensity.shape == expected.shape
        assert (intensity >= 0).all()
        np.testing.assert_allclose(
            intensity, expected,
            rtol=4.5 * np.finfo(expected.dtype).eps, atol=0)

    @pytest.mark.parametrize("order", [1, 3])
    def test_truncated_orders(self, fine_engine, random_masks, order):
        truncated = fine_engine.truncate(order)
        reference = _oracle(random_masks, truncated.kernels)
        np.testing.assert_allclose(truncated.aerial_batch(random_masks), reference,
                                   rtol=1e-10, atol=1e-12)

    def test_band_limited_fast_path_engages_and_is_exact(self, fine_engine, random_masks):
        grid = band_limit_grid(*fine_engine.kernel_shape)
        assert grid == (14, 14)  # the fast grid really is smaller than 64
        order = fine_engine.order
        blocks = band_limited_blocks(6, fine_engine.kernels.shape, (64, 64))
        recorder = RecordingBackend()
        bank_aerial(random_masks, fine_engine.kernels, backend=recorder)
        assert recorder.shapes("ifft2") == [(rows, order) + grid
                                            for rows in blocks]
        assert recorder.shapes("irfft2") == [(rows, 64, 64) for rows in blocks]
        reference = _oracle(random_masks, fine_engine.kernels)
        for cell in BACKEND_CELLS:
            fast = bank_aerial(random_masks, fine_engine.kernels,
                               backend=cell_backend(cell))
            np.testing.assert_allclose(fast, reference, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("window, grid, tile", [
        ((29, 29), (60, 60), (64, 64)),   # larger than 2n = 58 = 2 x prime 29
        ((7, 7), (14, 14), (16, 16)),     # equal to 2n
        ((13, 13), (25, 25), (32, 32)),   # odd, and smaller than 2n = 26
        ((13, 13), (25, 25), (25, 25)),   # ... and exactly the output
        ((13, 29), (25, 60), (40, 61)),   # each axis on its own, odd output
    ])
    def test_band_limit_grid_is_exact_whatever_its_relation_to_2n(
            self, window, grid, tile):
        assert band_limit_grid(*window) == grid
        rng = np.random.default_rng(29)
        kernels = rng.normal(size=(3,) + window) \
            + 1j * rng.normal(size=(3,) + window)
        masks = (rng.random((5,) + tile) > 0.6).astype(float)
        reference = reference_aerial(masks, kernels)
        recorder = RecordingBackend()
        bank_aerial(masks, kernels, backend=recorder)
        assert {shape[-2:] for shape in recorder.shapes("ifft2")} == {grid}
        for cell in BACKEND_CELLS:
            fast = bank_aerial(masks, kernels, backend=cell_backend(cell))
            np.testing.assert_allclose(fast, reference, rtol=0,
                                       atol=1e-12 * reference.max())

    @pytest.mark.parametrize("name", BACKEND_CELLS)
    @settings(max_examples=15, deadline=None)
    @given(tiles=st.sampled_from([1, 2, 3, 5, 100]), batch=st.integers(1, 7),
           band_limited=st.booleans(), seed=st.integers(0, 2 ** 16),
           workers=st.sampled_from([1, 2, 3, 5]))
    def test_block_size_is_invisible(self, name, tiles, batch, band_limited,
                                     seed, workers):
        """The one cut of a batch — blocks of 1 / an odd number / all of its
        tiles, either per-block body, imaged on one thread or shared out over
        several — never changes a tile's bits, and a block's leftovers in the
        reused scratch never reach the next one: the all-zero tile still
        images to exactly zero.  The ``numpy-shares`` cell shares out on a
        budget one above the drawn one."""
        rng = np.random.default_rng(seed)
        kernels = rng.normal(size=(3, 9, 9)) + 1j * rng.normal(size=(3, 9, 9))
        tile = 32 if band_limited else 16      # the grid is 18 x 18
        masks = (rng.random((batch, tile, tile)) > 0.5).astype(float)
        masks[batch // 2] = 0.0
        whole = bank_aerial(masks, kernels, backend=get_backend(1))
        # One tile's larger intermediate: (H, W) spectrum / (r, H, W) fields.
        per_tile = (32 * 32 if band_limited else 3 * 16 * 16) * 16
        recorder = RecordingBackend()
        shared = np.full_like(whole, np.nan)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batched, "BLOCK_BYTES", tiles * per_tile)
            cut = bank_aerial(masks, kernels, backend=recorder)
            if band_limited:
                assert band_limited_blocks(batch, kernels.shape, (32, 32)) \
                    == [shape[0] for shape in recorder.shapes("irfft2")]
            # The same blocks shared out over the worker budget (numpy; a
            # transforms-only backend has no budget and stays on this
            # thread), written into a NaN-filled result: every row is
            # written.

            def write(start, images):
                shared[start:start + len(images)] = images

            with threads_seen() as seen:
                batched.image_tiles(batch, lambda start, stop, _:
                                    masks[start:stop], write, kernels,
                                    RecordingBackend(workers)
                                    if name == TRANSFORMS_ONLY
                                    else get_backend(workers
                                                     + (name == SHARES)),
                                    resolve_precision(None), (tile, tile))
        if name != TRANSFORMS_ONLY \
                and min(workers + (name == SHARES), batch) > 1:
            assert_ran_on_shares(seen)
        assert max(shape[0] for shape in recorder.shapes("ifft2")) \
            == min(tiles, batch)
        np.testing.assert_array_equal(cut, whole)
        assert shared.tobytes() == whole.tobytes()   # every row, in order
        assert not cut[batch // 2].any() and not shared[batch // 2].any()
        np.testing.assert_allclose(cut, reference_aerial(masks, kernels),
                                   rtol=0, atol=1e-12)

    def test_no_transform_of_a_large_batch_exceeds_the_block_budget(self):
        """36 tiles on the production-shaped bank: the coherent fields exist
        a block at a time, never as one ``(36, 24, 60, 60)`` stack."""
        rng = np.random.default_rng(11)
        kernels = rng.normal(size=(24, 29, 29)) * (1 + 0.5j)
        masks = (rng.random((36, 64, 64)) > 0.7).astype(float)
        recorder = RecordingBackend()
        bank_aerial(masks, kernels, backend=recorder)
        fields = recorder.shapes("ifft2")
        assert [shape[0] for shape in fields] \
            == band_limited_blocks(36, kernels.shape, (64, 64)) == [4] * 9
        assert all(np.prod(shape) * 16 <= batched.BLOCK_BYTES
                   for shape in fields)

    def test_a_small_bank_on_a_large_tile_is_blocked_by_its_spectrum(self):
        """The ``(8, 7, 7)`` bank of a bare ``OpticsConfig()`` on 256 px
        tiles: 250 tiles of its fields fit the block budget, 11 of their
        zero-padded half spectra do — both intermediates size the block."""
        rng = np.random.default_rng(13)
        kernels = rng.normal(size=(8, 7, 7)) * (1 + 0.5j)
        masks = (rng.random((20, 256, 256)) > 0.7).astype(float)
        recorder = RecordingBackend()
        bank_aerial(masks, kernels, backend=recorder)
        blocks = band_limited_blocks(20, kernels.shape, (256, 256))
        assert blocks == [6, 6, 6, 2]
        assert [shape[0] for shape in recorder.shapes("irfft2")] == blocks
        for rows, height, width in recorder.shapes("irfft2"):
            assert rows * height * (width // 2 + 1) * 16 <= batched.BLOCK_BYTES
        for shape in recorder.shapes("ifft2"):
            assert np.prod(shape) * 16 <= batched.BLOCK_BYTES

    def test_direct_chunk_runs_when_grid_exceeds_tile(self, tiny_simulator, tiny_masks):
        kernels = tiny_simulator.kernels.kernels
        order, n, m = kernels.shape
        tile = tiny_masks.shape[-1]
        assert band_limit_grid(n, m)[0] > tile  # the grid does not fit the output
        masks = np.asarray(tiny_masks, dtype=float)
        recorder = RecordingBackend()
        bank_aerial(masks, kernels, backend=recorder)
        assert recorder.shapes("ifft2") == [(len(masks), order, tile, tile)]
        assert recorder.shapes("irfft2") == []
        reference = _oracle(masks, kernels)
        for cell in BACKEND_CELLS:
            direct = bank_aerial(masks, kernels, backend=cell_backend(cell))
            np.testing.assert_allclose(direct, reference, rtol=1e-10, atol=1e-12)

    def test_clear_field_is_the_dc_sample_energy(self, fine_engine, tiny_simulator):
        """An all-ones mask has only a DC component, so either chunk images it
        to the constant ``sum_i |K_i[DC]|^2``."""
        for engine in (fine_engine, tiny_simulator.engine):
            n, m = engine.kernel_shape
            tile = engine.tile_size_px
            dc_energy = np.sum(np.abs(engine.kernels[:, n // 2, m // 2]) ** 2)
            np.testing.assert_allclose(engine.aerial(np.ones((tile, tile))),
                                       dc_energy, rtol=1e-12, atol=1e-14)

    def test_chunking_is_invisible(self, monkeypatch, tiny_simulator,
                                   tiny_masks):
        """Through an engine, on the direct full-size body: one tile per
        block images exactly what one block of everything does."""
        engine = tiny_simulator.engine
        masks = np.asarray(tiny_masks, dtype=float)
        whole = engine.aerial_batch(masks)
        r, n, m = engine.kernels.shape
        tile = masks.shape[-1]
        assert band_limit_grid(n, m)[0] > tile
        itemsize = 16  # complex128
        tiny_budget = r * tile * tile * itemsize  # one tile's (r, H, W) fields
        monkeypatch.setattr(batched, "BLOCK_BYTES", tiny_budget)
        recorder = RecordingBackend()
        monkeypatch.setattr(engine, "backend", recorder)
        np.testing.assert_array_equal(engine.aerial_batch(masks), whole)
        assert recorder.shapes("ifft2") == [(1, r, tile, tile)] * len(masks)
        assert batch_chunk_size(6, r, tile, tile, tiny_budget, itemsize) == 1
        # The byte-denominated budget fits twice the masks at single precision.
        assert batch_chunk_size(6, r, tile, tile, 2 * tiny_budget, 8) == 4

    def test_chunk_arithmetic_counts_the_band_limit_grid(self):
        bank = (24, 29, 29)
        per_tile = 24 * 60 * 60 * 16  # the (r, 60, 60) fields, not (r, 58, 58)
        assert effective_chunk_tiles(36, bank, 256, 256, 15 * per_tile) == 15
        assert effective_chunk_tiles(36, bank, 256, 256, 15 * per_tile - 1) == 14
        # 59 px holds 2n = 58 but not the grid: evaluated, and budgeted, direct.
        direct = 24 * 59 * 59 * 16
        assert effective_chunk_tiles(36, bank, 59, 59, 15 * direct) == 15
        assert effective_chunk_tiles(36, bank, 59, 59, 15 * direct - 1) == 14

    def test_empty_batch(self, fine_engine):
        assert fine_engine.aerial_batch(np.zeros((0, 64, 64))).shape == (0, 64, 64)

    def test_simulator_batch_matches_per_tile(self, tiny_simulator, tiny_masks):
        batched = tiny_simulator.aerial_batch(np.asarray(tiny_masks, dtype=float))
        reference = _oracle(tiny_masks, tiny_simulator.kernels.kernels)
        np.testing.assert_allclose(batched, reference, rtol=1e-10, atol=1e-12)
        # One tile is a batch of one: same forward, same bits.
        np.testing.assert_array_equal(tiny_simulator.aerial(tiny_masks[0]),
                                      tiny_simulator.aerial_batch(tiny_masks[:1])[0])
        resist = tiny_simulator.resist_model.develop(batched)
        assert set(np.unique(resist)).issubset({0, 1})

    def test_simulator_batch_rejects_wrong_tile(self, tiny_simulator):
        with pytest.raises(ValueError):
            tiny_simulator.aerial_batch(np.zeros((2, 8, 8)))

    @pytest.mark.parametrize("shape", [(64, 64), (1, 2, 64, 64)])
    def test_batch_rejects_a_stack_that_is_not_three_dimensional(
            self, fine_engine, shape):
        """A calibrated and a bare bank both refuse before any transform."""
        recorder = RecordingBackend()
        bare = ExecutionEngine(fine_engine.kernels, fft_backend=recorder)
        for engine in (fine_engine, bare):
            with pytest.raises(ValueError,
                               match=r"masks must have shape \(B, H, W\)"):
                engine.aerial_batch(np.zeros(shape))
        assert recorder.calls == []

    def test_baseline_predict_batch_matches_per_tile(self, tiny_masks):
        from repro.baselines.tempo import TempoModel

        model = TempoModel(work_resolution=16, seed=0)
        masks = np.asarray(tiny_masks[:2], dtype=float)
        batched = model.predict_batch(masks)
        looped = np.stack([model.predict_aerial(mask) for mask in masks])
        np.testing.assert_allclose(batched, looped, rtol=1e-9, atol=1e-10)


class TestCoreImages:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("tile, guards", [
        (64, (0, 3, default_guard_px((9, 9), 64))),   # band-limited (18 px)
        (16, (0, 2, default_guard_px((9, 9), 16)))])  # direct: 16 < 18
    def test_a_guard_crops_the_guardless_images_bit_for_bit(
            self, tile, guards, precision, workers, monkeypatch):
        """``image_tiles(guard=g)`` writes the cores, in ``precision``, bit
        for bit the ``[g:-g, g:-g]`` crop of the ``guard=0`` images, on
        either per-block body and any worker budget, over several blocks."""
        rng = np.random.default_rng(tile + workers)
        kernels = rng.normal(size=(3, 9, 9)) + 1j * rng.normal(size=(3, 9, 9))
        masks = (rng.random((7, tile, tile)) > 0.5).astype(float)
        precision = resolve_precision(precision)
        kernels = kernels.astype(precision.complex_dtype)
        backend = get_backend(workers)
        # Several blocks: two direct tiles or one band-limited tile each.
        monkeypatch.setattr(batched, "BLOCK_BYTES", 2 * 3 * 16 * 16 * 16)
        masks = precision.as_real(masks)

        def cores(guard):
            side = tile - 2 * guard
            written = np.full((len(masks), side, side), np.nan,
                              precision.real_dtype)

            def write(start, images):
                assert images.dtype == precision.real_dtype
                written[start:start + len(images)] = images

            batched.image_tiles(len(masks), lambda start, stop, _:
                                masks[start:stop], write, kernels, backend,
                                precision, (tile, tile), guard)
            return written

        whole = cores(0)
        for guard in guards:
            core = slice(guard, tile - guard)
            expected = np.ascontiguousarray(whole[:, core, core])
            assert cores(guard).tobytes() == expected.tobytes(), guard


class TestTruncate:
    def test_rejects_order_beyond_bank(self, fine_engine):
        with pytest.raises(ValueError, match="only holds|available"):
            fine_engine.truncate(fine_engine.order + 1)
        with pytest.raises(ValueError):
            fine_engine.truncate(0)


class TestTiling:
    def test_split_stitch_identity_on_mask(self):
        layout = np.random.default_rng(0).random((120, 88))
        spec = TilingSpec(tile_px=48, guard_px=10)
        tiles, placements = extract_tiles(layout, spec)
        assert tiles.shape == (len(placements), 48, 48)
        roundtrip = stitch_tiles(tiles, placements, 120, 88, spec)
        np.testing.assert_array_equal(roundtrip, layout)

    def test_plan_covers_layout_once(self):
        spec = TilingSpec(tile_px=32, guard_px=4)
        placements = plan_tiles(70, 50, spec)
        coverage = np.zeros((70, 50), dtype=int)
        for place in placements:
            coverage[place.row:place.row + place.core_h,
                     place.col:place.col + place.core_w] += 1
        np.testing.assert_array_equal(coverage, 1)

    def test_guardless_divisible_layout_equals_per_tile_imaging(self, fine_engine):
        layout = (np.random.default_rng(1).random((128, 192)) > 0.7).astype(float)
        spec = TilingSpec(tile_px=64, guard_px=0)
        result = fine_engine.image_layout(layout, tiling=spec)
        tiles, placements = extract_tiles(layout, spec)
        reference = stitch_tiles(_oracle(tiles, fine_engine.kernels),
                                 placements, 128, 192, spec)
        np.testing.assert_allclose(result.aerial, reference, rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(
            result.resist, fine_engine.resist_model.develop(result.aerial))

    @staticmethod
    def _shifted_grid_seam_error(engine, guard_px: int) -> float:
        """Max interior disagreement between two tile-grid placements.

        The layout is imaged twice with tile boundaries in different places
        (by zero-padding the top-left corner); where the two tilings disagree
        is exactly the seam error the guard band is meant to suppress.
        """
        layout = (np.random.default_rng(2).random((220, 220)) > 0.75).astype(float)
        spec = TilingSpec(tile_px=96, guard_px=guard_px)
        base = engine.image_layout(layout, tiling=spec).aerial
        shift = 13  # moves every interior seam to a different place
        padded = np.zeros((220 + shift, 220 + shift))
        padded[shift:, shift:] = layout
        shifted = engine.image_layout(padded, tiling=spec).aerial[shift:, shift:]
        interior = (slice(48, -48), slice(48, -48))
        return float(np.abs(base[interior] - shifted[interior]).max() / base.max())

    def test_seam_error_decays_with_guard(self, physical_engine):
        """Hard-pupil optics: seam error decays algebraically with the guard.

        The optical PSF has unbounded support (hard pupil edge), so the seam
        error cannot reach floating-point zero; the guarantee is monotone
        decay to the sub-percent level at production guard widths.
        """
        narrow = self._shifted_grid_seam_error(physical_engine, 12)
        wide = self._shifted_grid_seam_error(physical_engine, 40)
        assert wide < narrow
        assert wide < 1.5e-2  # measured 3.9e-3; generous margin

    def test_apodized_pupil_suppresses_seams(self, apodized_engine):
        """A smooth pupil edge makes the PSF decay fast: seams all but vanish."""
        wide = self._shifted_grid_seam_error(apodized_engine, 40)
        assert wide < 3e-3  # measured 6.4e-4; generous margin

    def test_non_tile_sized_layout_roundtrip(self, fine_engine):
        """The acceptance scenario (scaled): a 1024x768-proportioned layout."""
        layout = (np.random.default_rng(5).random((192, 256)) > 0.8).astype(float)
        result = fine_engine.image_layout(layout, tile_px=64, guard_px=16)
        assert result.shape == (192, 256)
        assert result.num_tiles == plan_tiles(192, 256, result.tiling).__len__()
        assert result.aerial.min() >= -1e-12
        assert set(np.unique(result.resist)).issubset({0, 1})

    def test_default_guard_is_the_kernel_extent(self):
        assert default_guard_px((9, 11), 64) == 11
        assert TilingSpec(tile_px=64, guard_px=default_guard_px((9, 11), 64))

    @pytest.mark.parametrize("tile_px, guard", [(32, 14), (33, 15), (2, 0)])
    def test_default_guard_leaves_a_core_on_small_tiles(self, tile_px, guard):
        assert default_guard_px((41, 41), tile_px) == guard
        assert TilingSpec(tile_px=tile_px, guard_px=guard).core_px >= 1

    def test_extract_tiles_keeps_order_and_the_windows_dtype(self):
        layout = np.repeat(np.arange(4, dtype=np.float32), 3)[None, :]
        stack, placements = extract_tiles(layout, TilingSpec(tile_px=3))
        assert stack.shape == (4, 3, 3) and stack.dtype == np.float32
        assert [place.col for place in placements] == [0, 3, 6, 9]
        np.testing.assert_array_equal(stack[:, 0, 0], [0, 1, 2, 3])

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            TilingSpec(tile_px=0)
        with pytest.raises(ValueError):
            TilingSpec(tile_px=32, guard_px=16)  # no core left
        with pytest.raises(ValueError):
            TilingSpec(tile_px=32, guard_px=-1)

    def test_simulator_image_layout(self, tiny_simulator):
        layout = (np.random.default_rng(6).random((100, 70)) > 0.8).astype(float)
        result = tiny_simulator.engine.image_layout(layout)
        assert result.shape == (100, 70)
        assert result.tiling.tile_px <= 100


class TestDescribeComponent:
    def test_fields_in_name_order_and_arrays_by_digest(self):
        @dataclasses.dataclass
        class Knob:
            zeta: float
            alpha: tuple
            weights: np.ndarray

        text = describe_component(Knob(0.25, (1, 2), np.arange(3.0)))
        assert text.startswith("Knob(alpha=[1,2],weights=ndarray[(3,)]:")
        assert text.endswith(",zeta=0.25)")
        assert text != describe_component(Knob(0.25, (1, 2), np.arange(1.0, 4.0)))

    def test_equal_components_describe_equally(self):
        assert describe_component(CircularSource(sigma=0.6)) == \
            describe_component(CircularSource(sigma=0.6))
        assert describe_component(CircularSource(sigma=0.6)) != \
            describe_component(CircularSource(sigma=0.7))
        assert describe_component(AnnularSource(0.5, 0.8)) != \
            describe_component(CircularSource(sigma=0.8))

    def test_plain_value_falls_back_to_repr(self):
        assert describe_component(3.5) == "float(3.5)"


class TestKernelBankCache:
    SOURCE = AnnularSource(sigma_inner=0.5, sigma_outer=0.8)

    def test_decomposition_happens_at_most_once(self):
        cache = KernelBankCache()
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
        first = cache.get_kernels(config, self.SOURCE, Pupil())
        for _ in range(3):
            again = cache.get_kernels(config, self.SOURCE, Pupil())
            assert again is first
        assert cache.stats.decompositions == 1
        assert cache.stats.hits == 3

    def test_simulators_share_one_decomposition(self):
        cache = default_kernel_cache()
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0,
                              max_socs_order=7)
        before = cache.stats.decompositions
        sims = [LithographySimulator(config=config) for _ in range(3)]
        banks = [sim.kernels for sim in sims]
        assert banks[0] is banks[1] is banks[2]
        assert cache.stats.decompositions - before <= 1

    def test_fingerprint_separates_different_optics(self):
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        other = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, defocus_nm=50.0)
        assert optics_fingerprint(config, self.SOURCE, Pupil()) == \
            optics_fingerprint(config, self.SOURCE, Pupil())
        assert optics_fingerprint(config, self.SOURCE, Pupil()) != \
            optics_fingerprint(config, self.SOURCE, Pupil(defocus_nm=50.0))
        assert optics_fingerprint(config, self.SOURCE, Pupil()) != \
            optics_fingerprint(config, CircularSource(sigma=0.5), Pupil())
        assert optics_fingerprint(config, self.SOURCE, Pupil()) != \
            optics_fingerprint(other, self.SOURCE, Pupil())

    def test_pixelated_source_fingerprinted_by_value(self):
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        pixels_a = np.ones((9, 9))
        pixels_b = np.ones((9, 9))
        pixels_b[0, 0] = 0.5
        assert optics_fingerprint(config, PixelatedSource(pixels_a), Pupil()) == \
            optics_fingerprint(config, PixelatedSource(pixels_a.copy()), Pupil())
        assert optics_fingerprint(config, PixelatedSource(pixels_a), Pupil()) != \
            optics_fingerprint(config, PixelatedSource(pixels_b), Pupil())

    def test_disk_persistence_roundtrip(self, tmp_path):
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
        writer = KernelBankCache(cache_dir=str(tmp_path))
        bank = writer.get_kernels(config, self.SOURCE, Pupil())
        assert writer.stats.decompositions == 1

        reader = KernelBankCache(cache_dir=str(tmp_path))
        loaded = reader.get_kernels(config, self.SOURCE, Pupil())
        assert reader.stats.decompositions == 0
        assert reader.stats.disk_loads == 1
        np.testing.assert_allclose(loaded.kernels, bank.kernels)
        np.testing.assert_allclose(loaded.eigenvalues, bank.eigenvalues)
        assert loaded.total_energy == pytest.approx(bank.total_energy)

    @pytest.mark.parametrize("damage", ["truncated", "empty", "garbage",
                                        "flipped"])
    def test_torn_disk_entry_is_a_counted_miss(self, tmp_path, damage,
                                               caplog):
        """An unreadable ``kernels-*.npz`` must not crash every later run:
        it is a miss — counted, and logged once as a WARNING under
        ``repro.engine`` naming the file — the bank is rebuilt and the entry
        overwritten.  One flipped byte inside an otherwise valid zip is
        unreadable too (the member's CRC-32), never a wrong bank."""
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
        fresh = KernelBankCache().get_kernels(config, self.SOURCE, Pupil())
        KernelBankCache(cache_dir=str(tmp_path)).get_kernels(
            config, self.SOURCE, Pupil())
        (entry,) = tmp_path.glob("kernels-*.npz")
        intact = entry.read_bytes()
        middle = len(intact) // 2
        entry.write_bytes({"truncated": intact[:middle],
                           "empty": b"",
                           "garbage": b"not a zip archive" * 64,
                           "flipped": intact[:middle]
                           + bytes([intact[middle] ^ 0xFF])
                           + intact[middle + 1:]}[damage])

        second = KernelBankCache(cache_dir=str(tmp_path))
        engine = ExecutionEngine.for_optics(config, source=self.SOURCE,
                                            cache=second)
        np.testing.assert_array_equal(engine.kernels, fresh.kernels)
        assert second.stats.disk_errors == 1
        assert second.stats.decompositions == 1
        assert second.stats.disk_loads == 0
        (record,) = [r for r in caplog.records
                     if r.name.startswith("repro.engine")]
        assert record.levelname == "WARNING"
        assert str(entry) in record.getMessage()
        assert re.search(r"\(\w+\)", record.getMessage())  # the error class
        caplog.clear()

        third = KernelBankCache(cache_dir=str(tmp_path))
        rebuilt = third.get_kernels(config, self.SOURCE, Pupil())
        np.testing.assert_array_equal(rebuilt.kernels, fresh.kernels)
        assert third.stats.disk_loads == 1
        assert third.stats.disk_errors == 0 and third.stats.decompositions == 0
        assert not caplog.records

    def test_a_hit_never_waits_on_another_threads_disk_write(
            self, tmp_path, monkeypatch):
        """The bank is compressed and written outside the cache lock: while
        one thread is still persisting a fresh bank, another thread's lookup
        of the same optics is a memory hit that returns at once."""
        from repro.engine import cache as cache_module

        writing, release = threading.Event(), threading.Event()
        save = cache_module.save_npz_atomically

        def stalled(path, **arrays):
            writing.set()
            release.wait(timeout=30)
            save(path, **arrays)

        monkeypatch.setattr(cache_module, "save_npz_atomically", stalled)
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
        cache = KernelBankCache(cache_dir=str(tmp_path))
        banks = []

        def lookup():
            banks.append(cache.get_kernels(config, self.SOURCE, Pupil()))

        writer, reader = threading.Thread(target=lookup), threading.Thread(target=lookup)
        writer.start()
        try:
            assert writing.wait(timeout=30)
            reader.start()
            reader.join(timeout=2)
            assert not reader.is_alive(), "a hit waited on another thread's write"
            assert writer.is_alive()
        finally:
            release.set()
            writer.join(timeout=30)
            reader.join(timeout=30)
        assert len(banks) == 2 and banks[0] is banks[1]
        assert cache.stats.decompositions == 1 and cache.stats.hits == 1
        assert len(list(tmp_path.glob("kernels-*.npz"))) == 1

    def test_concurrent_lookups_decompose_once_and_count_every_call(
            self, tmp_path):
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
        cache = KernelBankCache(cache_dir=str(tmp_path))
        threads, banks = 6, []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=lambda: banks.append(
                cache.get_kernels(config, self.SOURCE, Pupil())))
                for _ in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in workers)
        finally:
            sys.setswitchinterval(interval)
        assert len(banks) == threads and all(bank is banks[0] for bank in banks)
        stats = cache.stats
        assert (stats.decompositions, stats.misses, stats.hits) == \
            (1, 1, threads - 1)
        assert len(list(tmp_path.glob("kernels-*.npz"))) == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_clear_resets(self):
        cache = KernelBankCache()
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=4)
        cache.get_kernels(config, self.SOURCE, Pupil())
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.decompositions == 0

    def test_stats_taken_before_a_clear_keep_counting(self):
        """``.stats`` is the one live object: cleared in place, never
        rebound, so a reference held across ``clear()`` sees what follows."""
        cache = KernelBankCache()
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=4)
        held = cache.stats
        cache.get_kernels(config, self.SOURCE, Pupil())
        cache.clear()
        assert held is cache.stats and held.decompositions == 0
        cache.get_kernels(config, self.SOURCE, Pupil())
        cache.get_kernels(config, self.SOURCE, Pupil())
        assert (held.decompositions, held.misses, held.hits) == (1, 1, 1)


class TestSOCSKernelsField:
    def test_total_energy_is_a_constructor_field(self):
        kernels = SOCSKernels(kernels=np.zeros((1, 3, 3), dtype=complex),
                              eigenvalues=np.array([0.5]),
                              kernel_shape=(3, 3),
                              total_energy=2.0)
        assert kernels.total_energy == 2.0

    def test_decompose_populates_total_energy(self, tiny_simulator):
        bank = tiny_simulator.kernels
        captured = float(bank.eigenvalues.sum()) / bank.total_energy
        assert 0.0 < captured <= 1.0 + 1e-12


class TestFourierResizeBatch:
    def test_matches_per_image_resize(self):
        images = np.random.default_rng(7).random((3, 16, 16))
        batched = fourier_resize(images, (24, 24))
        looped = np.stack([fourier_resize(img, (24, 24)) for img in images])
        np.testing.assert_allclose(batched, looped, rtol=1e-12, atol=1e-12)

    def test_identity_and_validation(self):
        images = np.random.default_rng(8).random((2, 8, 8))
        np.testing.assert_allclose(fourier_resize(images, (8, 8)), images)
        with pytest.raises(ValueError):
            fourier_resize(images, (0, 8))


class TestImageLayoutCLI:
    def test_image_layout_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        output = str(tmp_path / "layout.npz")
        code = main(["image-layout", "--width", "96", "--height", "80",
                     "--tile-size", "48", "--pixel-size-nm", "8",
                     "--output", output])
        assert code == 0
        with np.load(output) as data:
            assert data["aerial"].shape == (80, 96)
            assert data["resist"].shape == (80, 96)
            assert data["mask"].shape == (80, 96)
        assert "um^2/s" in capsys.readouterr().out

    def test_image_layout_from_file(self, tmp_path):
        from repro.cli import main

        mask = (np.random.default_rng(9).random((60, 90)) > 0.8).astype(float)
        mask_path = str(tmp_path / "mask.npy")
        np.save(mask_path, mask)
        output = str(tmp_path / "layout.npz")
        code = main(["image-layout", "--input", mask_path, "--tile-size", "32",
                     "--pixel-size-nm", "8", "--guard", "8", "--output", output])
        assert code == 0
        with np.load(output) as data:
            np.testing.assert_array_equal(data["mask"], mask)
            assert data["aerial"].shape == mask.shape

    def test_image_layout_streaming_matches_in_memory(self, tmp_path, capsys):
        """--out produces the bit-identical stitched result."""
        from repro.cli import main
        from repro.engine import open_layout_dir

        mask = (np.random.default_rng(10).random((60, 90)) > 0.8).astype(float)
        mask_path = str(tmp_path / "mask.npy")
        np.save(mask_path, mask)
        reference = str(tmp_path / "ref.npz")
        assert main(["image-layout", "--input", mask_path, "--tile-size", "32",
                     "--pixel-size-nm", "8", "--guard", "8",
                     "--output", reference]) == 0
        out_dir = str(tmp_path / "streamed")
        assert main(["image-layout", "--input", mask_path, "--tile-size", "32",
                     "--pixel-size-nm", "8", "--guard", "8",
                     "--out", out_dir]) == 0
        assert "streamed" in capsys.readouterr().out
        aerial, resist, meta = open_layout_dir(out_dir)
        with np.load(reference) as data:
            np.testing.assert_array_equal(np.asarray(aerial), data["aerial"])
            np.testing.assert_array_equal(np.asarray(resist), data["resist"])
        assert meta["shape"] == [60, 90]

    def test_image_layout_requires_some_output(self, capsys):
        from repro.cli import main

        assert main(["image-layout", "--width", "64", "--height", "64",
                     "--tile-size", "32", "--pixel-size-nm", "8"]) == 2
        assert "--output" in capsys.readouterr().err
