"""Tests for the TCC computation and SOCS decomposition (the heart of the golden simulator)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import autotune_precision
from repro.engine import ExecutionEngine, batched
from repro.optics.kernel_dims import kernel_dimensions
from repro.optics.pupil import Pupil
from repro.optics.simulator import OpticsConfig
from repro.optics.socs import (
    UnpairedWindowError, _mirror_indices, decompose_tcc, socs_kernels,
    truncation_error_bound)
from repro.optics.source import (
    AnnularSource, CircularSource, DipoleSource, PixelatedSource,
    QuadrupoleSource)
from repro.optics.tcc import TCCResult, compute_tcc, shifted_pupil_stack

WAVELENGTH = 193.0
NA = 1.35
FIELD = 960.0  # nm
KERNEL_SHAPE = (15, 15)


@pytest.fixture(scope="module")
def tcc_circular():
    return compute_tcc(CircularSource(sigma=0.6), Pupil(), KERNEL_SHAPE,
                       field_size_nm=FIELD, wavelength_nm=WAVELENGTH, numerical_aperture=NA)


@pytest.fixture(scope="module")
def tcc_annular():
    return compute_tcc(AnnularSource(0.5, 0.8), Pupil(), KERNEL_SHAPE,
                       field_size_nm=FIELD, wavelength_nm=WAVELENGTH, numerical_aperture=NA)


def captured(bank) -> float:
    """Fraction of the TCC energy (its trace) a bank's kernels retain."""
    return float(bank.eigenvalues.sum()) / bank.total_energy


class TestTCCMatrix:
    def test_shape(self, tcc_circular):
        order = KERNEL_SHAPE[0] * KERNEL_SHAPE[1]
        assert tcc_circular.matrix.shape == (order, order)
        assert tcc_circular.order == order

    def test_hermitian(self, tcc_circular):
        np.testing.assert_allclose(tcc_circular.matrix, tcc_circular.matrix.conj().T, atol=1e-12)

    def test_positive_semidefinite(self, tcc_circular):
        eigenvalues = np.linalg.eigvalsh(tcc_circular.matrix)
        assert eigenvalues.min() > -1e-10

    def test_dc_diagonal_is_largest(self, tcc_circular):
        """T(0,0) — full source passing through the centred pupil — dominates the diagonal."""
        diag = np.real(np.diag(tcc_circular.matrix)).reshape(KERNEL_SHAPE)
        centre = KERNEL_SHAPE[0] // 2
        assert diag[centre, centre] == diag.max()

    def test_dc_value_is_transmitted_fraction(self, tcc_circular):
        """For sigma <= 1 the whole source passes the pupil, so T(0,0) == 1."""
        diag = np.real(np.diag(tcc_circular.matrix)).reshape(KERNEL_SHAPE)
        centre = KERNEL_SHAPE[0] // 2
        assert diag[centre, centre] == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_decays_away_from_dc(self, tcc_circular):
        diag = np.real(np.diag(tcc_circular.matrix)).reshape(KERNEL_SHAPE)
        centre = KERNEL_SHAPE[0] // 2
        assert diag[centre, centre] > diag[centre, -1]

    def test_annular_differs_from_circular(self, tcc_circular, tcc_annular):
        assert not np.allclose(tcc_circular.matrix, tcc_annular.matrix)

    def test_invalid_kernel_shape(self):
        with pytest.raises(ValueError):
            compute_tcc(CircularSource(0.5), Pupil(), (0, 5), FIELD, WAVELENGTH, NA)

    def test_defocus_changes_tcc(self):
        focused = compute_tcc(CircularSource(0.6), Pupil(), (9, 9), FIELD, WAVELENGTH, NA)
        defocused = compute_tcc(CircularSource(0.6), Pupil(defocus_nm=100.0), (9, 9),
                                FIELD, WAVELENGTH, NA)
        assert not np.allclose(focused.matrix, defocused.matrix)


class TestSOCS:
    def test_eigenvalues_sorted_and_non_negative(self, tcc_circular):
        kernels = decompose_tcc(tcc_circular, max_order=12)
        assert np.all(kernels.eigenvalues >= 0)
        assert np.all(np.diff(kernels.eigenvalues) <= 1e-12)

    def test_max_order_respected(self, tcc_circular):
        kernels = decompose_tcc(tcc_circular, max_order=5)
        assert kernels.order == 5
        assert kernels.kernels.shape == (5, *KERNEL_SHAPE)

    def test_kernels_include_sqrt_eigenvalue(self, tcc_circular):
        kernels = decompose_tcc(tcc_circular, max_order=6)
        for i in range(kernels.order):
            energy = np.sum(np.abs(kernels.kernels[i]) ** 2)
            assert energy == pytest.approx(kernels.eigenvalues[i], rel=1e-9)

    def test_reconstruction_improves_with_order(self, tcc_circular):
        """More kernels reconstruct the TCC matrix more faithfully."""
        def reconstruction_error(order):
            kernels = decompose_tcc(tcc_circular, max_order=order)
            flat = kernels.kernels.reshape(kernels.order, -1)
            approx = np.einsum("ip,iq->pq", flat, np.conj(flat))  # sum_i k_i k_i^H
            return np.linalg.norm(approx - tcc_circular.matrix)

        assert reconstruction_error(20) < reconstruction_error(3)

    def test_full_order_reconstructs_tcc(self, tcc_circular):
        kernels = decompose_tcc(tcc_circular, max_order=None, energy_tolerance=0.0)
        flat = kernels.kernels.reshape(kernels.order, -1)
        approx = np.einsum("ip,iq->pq", flat, np.conj(flat))
        relative = np.linalg.norm(approx - tcc_circular.matrix) / np.linalg.norm(tcc_circular.matrix)
        assert relative < 1e-6

    def test_energy_captured_monotone(self, tcc_circular):
        low = captured(decompose_tcc(tcc_circular, max_order=2))
        high = captured(decompose_tcc(tcc_circular, max_order=20))
        assert 0 < low <= high <= 1.0 + 1e-12

    def test_eigenvalues_decay_fast(self, tcc_circular):
        """The paper's premise: a few dozen kernels capture essentially all energy."""
        kernels = decompose_tcc(tcc_circular, max_order=24)
        assert captured(kernels) > 0.95


class TestTruncationBound:
    def test_zero_discard_for_full_order(self, tcc_circular):
        assert truncation_error_bound(tcc_circular, tcc_circular.order) == pytest.approx(0.0)

    def test_bound_decreases_with_order(self, tcc_circular):
        assert (truncation_error_bound(tcc_circular, 2)
                > truncation_error_bound(tcc_circular, 10)
                >= truncation_error_bound(tcc_circular, 50))

    def test_bound_is_a_fraction(self, tcc_circular):
        bound = truncation_error_bound(tcc_circular, 1)
        assert 0.0 <= bound <= 1.0


# The production build, ``socs_kernels`` (a packed bank of real-field kernels
# from one thin real SVD of the parity-split lit shifted-pupil stack), against
# the reference, ``decompose_tcc`` (a dense eigendecomposition of the formed
# TCC): of ``T~ = (T + P conj(T) P) / 2`` for the bank itself, of ``T`` for
# the truncation budget and for the images at focus.
BENCH_OPTICS = OpticsConfig(tile_size_px=256, pixel_size_nm=4.0, max_socs_order=24)
SMALL_OPTICS = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=24)
# 27-sample window on 48 px: the intensity band (53 wide) does not fit, so
# the direct full-size body images it.
COARSE_OPTICS = OpticsConfig(tile_size_px=48, pixel_size_nm=20.0, max_socs_order=24)
# Eq. (10) asks for 45 samples, the 16 px tile has 16: an even window that is
# the tile's whole lattice.
CLAMPED_OPTICS = OpticsConfig(tile_size_px=16, pixel_size_nm=100.0, max_socs_order=None)
SYMMETRIC_SOURCES = ["circular", "annular", "dipole", "quadrupole"]


def _kernel_shape(config):
    return kernel_dimensions(config.tile_size_px, config.tile_size_px,
                             wavelength_nm=config.wavelength_nm,
                             numerical_aperture=config.numerical_aperture,
                             pixel_size_nm=config.pixel_size_nm)


def _optics_arguments(config, source, pupil):
    return (source, pupil, _kernel_shape(config), config.field_size_nm,
            config.wavelength_nm, config.numerical_aperture)


def _source(name, config):
    if name == "pixelated":
        shape = _kernel_shape(config)
        rng = np.random.default_rng(7)
        return PixelatedSource(rng.random(shape) * (rng.random(shape) < 0.3))
    return {"circular": CircularSource(0.6),
            "annular": AnnularSource(0.5, 0.8),
            "dipole": DipoleSource(),
            "quadrupole": QuadrupoleSource()}[name]


def _gram(kernels):
    flat = kernels.reshape(kernels.shape[0], -1)
    return flat.T @ flat.conj()  # sum_i K_i K_i^H


def _mirrored_tcc(tcc):
    """``T~ = (T + P conj(T) P) / 2``: all of the TCC a real mask sees."""
    mirror = _mirror_indices(tcc.kernel_shape)
    matrix = (tcc.matrix + tcc.matrix[np.ix_(mirror, mirror)].conj()) / 2
    return TCCResult(matrix=matrix, kernel_shape=tcc.kernel_shape, grid=tcc.grid)


def _banks(config, source_name, defocus_nm):
    arguments = _optics_arguments(config, _source(source_name, config),
                                  Pupil(defocus_nm=defocus_nm))
    tcc = compute_tcc(*arguments)
    return (socs_kernels(*arguments, max_order=config.max_socs_order),
            decompose_tcc(tcc, max_order=config.max_socs_order), tcc)


def _aerials(kernel_banks, masks):
    return [ExecutionEngine(kernels).aerial_batch(masks)
            for kernels in kernel_banks]


MATRIX = pytest.mark.parametrize("config", [BENCH_OPTICS, SMALL_OPTICS],
                                 ids=["256px-4nm", "32px-8nm"])


@pytest.mark.parametrize("defocus_nm", [0.0, 80.0], ids=["focus", "defocus80"])
@pytest.mark.parametrize("source_name", SYMMETRIC_SOURCES + ["pixelated"])
@MATRIX
def test_unpacked_bank_is_the_mirrored_tcc_eigendecomposition(
        config, source_name, defocus_nm):
    packed, eigen, tcc = _banks(config, source_name, defocus_nm)
    mirrored = _mirrored_tcc(tcc)
    kernels = packed.real_field_kernels()
    count = kernels.shape[0]
    oracle = decompose_tcc(mirrored, max_order=count)
    scale = oracle.eigenvalues[0]

    assert packed.order == (count + 1) // 2
    assert packed.kernels.shape == (packed.order, *eigen.kernel_shape)
    # Layout decides numpy's reduction order downstream (training, ILT).
    assert packed.kernels.flags.c_contiguous
    assert oracle.order == count
    np.testing.assert_allclose(packed.eigenvalues, oracle.eigenvalues,
                               rtol=0, atol=1e-12 * scale)
    assert np.all(np.diff(packed.eigenvalues) <= 0)
    # Every kernel is real-field and an eigenkernel of T~: T~ k = lambda k.
    flat = kernels.reshape(count, -1)
    mirror = _mirror_indices(packed.kernel_shape)
    np.testing.assert_allclose(flat[:, mirror].conj(), flat, rtol=0, atol=1e-12)
    np.testing.assert_allclose(flat @ mirrored.matrix.T,
                               packed.eigenvalues[:, None] * flat,
                               rtol=0, atol=1e-12 * scale)
    spectrum = np.clip(np.sort(np.linalg.eigvalsh(mirrored.matrix))[::-1],
                       0.0, None)
    following = spectrum[count] if count < spectrum.size else 0.0
    # The cut is never inside a (near-)degenerate eigenspace, so the kept
    # kernels span exactly the oracle's eigenspaces.
    assert (spectrum[count - 1] - following) / spectrum[count - 1] > 1e-6
    np.testing.assert_allclose(_gram(kernels), _gram(oracle.kernels),
                               rtol=0, atol=1e-12 * scale)
    trace = float(np.trace(tcc.matrix).real)
    assert packed.total_energy == pytest.approx(trace, rel=1e-12)
    assert packed.total_energy == pytest.approx(eigen.total_energy, rel=1e-12)


@pytest.mark.parametrize("defocus_nm", [0.0, 80.0], ids=["focus", "defocus80"])
@pytest.mark.parametrize("source_name", SYMMETRIC_SOURCES + ["pixelated"])
@MATRIX
def test_max_socs_order_bounds_the_truncation_error(config, source_name,
                                                    defocus_nm):
    """The packed bank keeps the fewest real kernels discarding no more of
    the trace than the ``max_socs_order``-kernel eigen bank of ``T`` — Pati
    & Kailath's bound — in at most as many transforms."""
    packed, eigen, tcc = _banks(config, source_name, defocus_nm)
    budget = eigen.eigenvalues.sum()
    retained = np.cumsum(packed.eigenvalues)
    discarded = 1.0 - retained[-1] / packed.total_energy
    # The fewest that reach the budget, then the rest of the last one's
    # degenerate eigenspace.
    fewest = int(np.argmax(retained >= budget * (1 - 1e-12))) + 1

    assert retained[-1] >= budget * (1 - 1e-12)
    np.testing.assert_allclose(packed.eigenvalues[fewest - 1:],
                               packed.eigenvalues[fewest - 1], rtol=1e-6)
    assert discarded <= truncation_error_bound(tcc, eigen.order) + 1e-12
    assert packed.order <= eigen.order
    # --precision auto reads the weakest row: a packed pair carries about
    # twice a real kernel's share, and it still decides alike.
    assert autotune_precision(packed.kernels) is autotune_precision(eigen.kernels)


@pytest.mark.parametrize("source_name", SYMMETRIC_SOURCES)
def test_at_focus_a_symmetric_source_images_like_the_eigen_bank(source_name):
    """At focus under a symmetric source ``T~ = T``: the packed bank holds the
    eigen bank's kernels, two to a transform, and images alike."""
    packed, eigen, _ = _banks(BENCH_OPTICS, source_name, 0.0)
    mask = np.zeros((256, 256))
    mask[40:216, 100:124] = 1.0
    mask[120:140, 20:236] = 1.0
    assert packed.eigenvalues.size == eigen.order
    assert packed.order == (eigen.order + 1) // 2
    ours, theirs = _aerials([packed.kernels, eigen.kernels], mask[None])
    assert ours.max() > 0.1
    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("defocus_nm", [20.0, 40.0, 80.0])
def test_defocus_keeps_the_source_symmetry(defocus_nm):
    """Annular source and a round pupil are symmetric under ``x <-> y``, and
    so is the bank's image when no degenerate eigenspace is cut in two."""
    packed, _, _ = _banks(BENCH_OPTICS, "annular", defocus_nm)
    mask = np.zeros((256, 256))
    mask[40:216, 100:124] = 1.0
    mask[120:140, 20:236] = 1.0
    mask[60:70, 30:90] = 1.0
    engine = ExecutionEngine(packed.kernels)
    aerial = engine.aerial(mask)
    assert aerial.max() > 0.1
    np.testing.assert_allclose(engine.aerial(mask.T), aerial.T, rtol=0,
                               atol=1e-12)


def test_only_a_packed_bank_unpacks():
    arguments = _optics_arguments(SMALL_OPTICS, AnnularSource(0.5, 0.8),
                                  Pupil())
    eigen = decompose_tcc(compute_tcc(*arguments), max_order=3)
    with pytest.raises(ValueError, match="not a packed bank"):
        eigen.real_field_kernels()


def _random_masks(config, seed, density):
    rng = np.random.default_rng(seed)
    tile = config.tile_size_px
    return (rng.random((2, tile, tile)) < density).astype(float)


@pytest.mark.parametrize("config, band_limited", [
    (SMALL_OPTICS, True), (COARSE_OPTICS, False)],
    ids=["band-limited-body", "direct-body"])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.05, 0.95),
       defocus_nm=st.sampled_from([0.0, 40.0]))
def test_a_packed_pair_images_like_its_two_kernels(config, band_limited,
                                                   seed, density, defocus_nm):
    packed = socs_kernels(*_optics_arguments(
        config, AnnularSource(0.5, 0.8), Pupil(defocus_nm=defocus_nm)),
        max_order=config.max_socs_order)
    n, m = packed.kernel_shape
    tile = config.tile_size_px
    assert (batched.intensity_grid(n, m, tile, tile)
            == batched.band_limit_grid(n, m)) == band_limited
    masks = _random_masks(config, seed, density)
    ours, theirs = _aerials([packed.kernels, packed.real_field_kernels()], masks)
    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)


def test_an_odd_kernel_count_leaves_the_last_one_unpaired():
    packed = socs_kernels(*_optics_arguments(
        SMALL_OPTICS, AnnularSource(0.5, 0.8), Pupil()), max_order=5)
    assert packed.eigenvalues.size == 5
    assert packed.order == 3
    last = packed.kernels[-1].ravel()
    np.testing.assert_allclose(
        last[_mirror_indices(packed.kernel_shape)].conj(), last,
        rtol=0, atol=1e-15)
    assert np.sum(np.abs(last) ** 2) == pytest.approx(packed.eigenvalues[-1],
                                                      rel=1e-12)
    masks = _random_masks(SMALL_OPTICS, 3, 0.4)
    ours, theirs = _aerials([packed.kernels, packed.real_field_kernels()], masks)
    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)


class TestEvenWindow:
    def test_the_clamped_window_images_exactly(self):
        """16 px at 100 nm: the window is the tile's whole lattice, where
        ``+8`` aliases onto ``-8``; at full rank the packed bank images as
        the complex eigen bank of ``T`` does."""
        assert _kernel_shape(CLAMPED_OPTICS) == (16, 16)
        packed, eigen, tcc = _banks(CLAMPED_OPTICS, "annular", 40.0)
        assert packed.eigenvalues.sum() == pytest.approx(
            packed.total_energy, rel=1e-9)
        masks = _random_masks(CLAMPED_OPTICS, 5, 0.5)
        ours, unpacked, theirs = _aerials(
            [packed.kernels, packed.real_field_kernels(), eigen.kernels], masks)
        scale = theirs.max()
        np.testing.assert_allclose(ours, unpacked, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12 * scale)
        spectrum = np.linalg.eigvalsh(_mirrored_tcc(tcc).matrix)
        assert spectrum[spectrum > 1e-9 * spectrum.max()].sum() == \
            pytest.approx(packed.eigenvalues.sum(), rel=1e-12)

    def test_an_even_window_eq10_does_not_clamp_is_refused(self):
        """On a 32 px / 8 nm tile Eq. (10) gives 7 samples: a 16-wide window
        has an edge frequency without a mirror, so no real-field bank."""
        arguments = _optics_arguments(SMALL_OPTICS, AnnularSource(0.5, 0.8),
                                      Pupil())
        with pytest.raises(UnpairedWindowError, match="even size"):
            socs_kernels(arguments[0], arguments[1], (16, 15), *arguments[3:])
        assert issubclass(UnpairedWindowError, ValueError)


class TestThinSVDEdges:
    def test_one_lit_sample_is_one_transform_imaging_the_shifted_pupil(self):
        """One lit sample ``s``: ``T = J(s) a a^H`` with ``a`` the pupil
        shifted to ``s``.  A real mask sees ``T~ = (a a^H + b b^H) / 2``
        with ``b = P conj(a)``, two real-field kernels, one transform — and
        that transform images exactly as ``a`` does."""
        shape = _kernel_shape(SMALL_OPTICS)
        pixels = np.zeros(shape)
        pixels[2, 4] = 0.3
        arguments = _optics_arguments(SMALL_OPTICS, PixelatedSource(pixels),
                                      Pupil(defocus_nm=80.0))
        bank = socs_kernels(*arguments, max_order=24)
        shifted, weights = shifted_pupil_stack(*arguments)
        sample = np.ravel_multi_index((2, 4), shape)
        assert weights[sample] == 1.0  # normalised to unit power
        expected = (np.sqrt(weights[sample]) * shifted[:, sample]).reshape(shape)
        energy = np.sum(np.abs(expected) ** 2)

        assert bank.order == 1
        assert bank.kernels.shape == (1, *shape)
        assert bank.eigenvalues.size == 2
        assert bank.eigenvalues.sum() == pytest.approx(energy, rel=1e-14)
        assert bank.total_energy == pytest.approx(energy, rel=1e-14)
        mirror = expected.ravel()[_mirror_indices(shape)].conj().reshape(shape)
        np.testing.assert_allclose(
            _gram(bank.real_field_kernels()),
            (_gram(expected[None]) + _gram(mirror[None])) / 2,
            rtol=0, atol=1e-14)
        masks = _random_masks(SMALL_OPTICS, 11, 0.3)
        ours, theirs = _aerials([bank.kernels, expected[None]], masks)
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-14)

    def test_an_order_above_the_lit_count_keeps_the_rank_not_padding(self):
        """``max_order`` above the number of lit samples: the eigen bank keeps
        the ``rank``-many kernels the tolerance rule allows, the packed bank
        the trace they hold in no more transforms."""
        arguments = _optics_arguments(BENCH_OPTICS, DipoleSource(), Pupil())
        lit = int(np.count_nonzero(shifted_pupil_stack(*arguments)[1]))
        assert lit < 100
        packed = socs_kernels(*arguments, max_order=100)
        eigen = decompose_tcc(compute_tcc(*arguments), max_order=100)
        assert packed.order <= eigen.order <= lit
        assert packed.eigenvalues.size <= 2 * eigen.order
        assert packed.kernels.shape == (packed.order, *eigen.kernel_shape)
        assert np.all(packed.eigenvalues > 1e-9 * packed.eigenvalues[0])
        assert captured(packed) >= captured(eigen) - 1e-12

    def test_an_all_dark_source_is_refused(self):
        shape = _kernel_shape(SMALL_OPTICS)
        arguments = _optics_arguments(SMALL_OPTICS, PixelatedSource(np.zeros(shape)),
                                      Pupil())
        with pytest.raises(ValueError, match="all-zero source map"):
            socs_kernels(*arguments)
        with pytest.raises(ValueError, match="all-zero source map"):
            compute_tcc(*arguments)
