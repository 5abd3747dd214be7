"""Tests for the TCC computation and SOCS decomposition (the heart of the golden simulator)."""

import numpy as np
import pytest

from repro.backend import ComputeConfig
from repro.engine import ExecutionEngine
from repro.optics.kernel_dims import kernel_dimensions
from repro.optics.pupil import Pupil
from repro.optics.simulator import OpticsConfig
from repro.optics.socs import (
    decompose_tcc, socs_kernels, truncation_error_bound)
from repro.optics.source import (
    AnnularSource, CircularSource, DipoleSource, PixelatedSource,
    QuadrupoleSource)
from repro.optics.tcc import compute_tcc, shifted_pupil_stack

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
        low = decompose_tcc(tcc_circular, max_order=2).energy_captured()
        high = decompose_tcc(tcc_circular, max_order=20).energy_captured()
        assert 0 < low <= high <= 1.0 + 1e-12

    def test_eigenvalues_decay_fast(self, tcc_circular):
        """The paper's premise: a few dozen kernels capture essentially all energy."""
        kernels = decompose_tcc(tcc_circular, max_order=24)
        assert kernels.energy_captured() > 0.95


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


# The production build, ``socs_kernels`` (a thin SVD of the lit shifted-pupil
# stack), against the reference it replaced, ``decompose_tcc(compute_tcc())``
# (a dense eigendecomposition of the formed TCC).
BENCH_OPTICS = OpticsConfig(tile_size_px=256, pixel_size_nm=4.0, max_socs_order=24)
SMALL_OPTICS = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=24)


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


def _truncated_tcc(bank):
    flat = bank.kernels.reshape(bank.order, -1)
    return flat.T @ flat.conj()  # sum_i K_i K_i^H


def _both_banks(config, source_name, defocus_nm):
    arguments = _optics_arguments(config, _source(source_name, config),
                                  Pupil(defocus_nm=defocus_nm))
    tcc = compute_tcc(*arguments)
    return (socs_kernels(*arguments, max_order=config.max_socs_order),
            decompose_tcc(tcc, max_order=config.max_socs_order), tcc)


@pytest.mark.parametrize("defocus_nm", [0.0, 80.0], ids=["focus", "defocus80"])
@pytest.mark.parametrize("source_name", ["circular", "annular", "dipole",
                                         "quadrupole", "pixelated"])
@pytest.mark.parametrize("config", [BENCH_OPTICS, SMALL_OPTICS],
                         ids=["256px-4nm", "32px-8nm"])
def test_thin_svd_bank_equals_the_tcc_eigendecomposition(
        config, source_name, defocus_nm):
    svd, eigh, tcc = _both_banks(config, source_name, defocus_nm)
    spectrum = np.clip(np.sort(np.linalg.eigvalsh(tcc.matrix))[::-1], 0.0, None)
    scale = spectrum[0]

    assert svd.order == eigh.order
    cut = svd.order
    following = spectrum[cut] if cut < spectrum.size else 0.0
    # A cut inside a (near-)degenerate pair keeps an arbitrary basis of it on
    # each side; refuse to compare those rather than pass by luck.
    assert (spectrum[cut - 1] - following) / spectrum[cut - 1] > 1e-6

    assert svd.kernel_shape == eigh.kernel_shape
    assert svd.kernels.shape == eigh.kernels.shape
    # Layout decides numpy's reduction order downstream (training, ILT).
    assert svd.kernels.flags.c_contiguous and eigh.kernels.flags.c_contiguous
    np.testing.assert_allclose(svd.eigenvalues, eigh.eigenvalues,
                               rtol=0, atol=1e-12 * scale)
    assert np.all(np.diff(svd.eigenvalues) <= 0)
    np.testing.assert_allclose(_truncated_tcc(svd), _truncated_tcc(eigh),
                               rtol=0, atol=1e-12 * scale)
    trace = float(np.trace(tcc.matrix).real)
    assert svd.total_energy == pytest.approx(trace, rel=1e-12)
    assert svd.total_energy == pytest.approx(eigh.total_energy, rel=1e-12)


def test_thin_svd_bank_images_like_the_tcc_eigendecomposition():
    svd, eigh, _ = _both_banks(BENCH_OPTICS, "annular", 0.0)
    mask = np.zeros((256, 256))
    mask[40:216, 100:124] = 1.0
    mask[120:140, 20:236] = 1.0
    compute = ComputeConfig(fft_backend="numpy")
    ours = ExecutionEngine(svd.kernels, compute=compute).aerial(mask)
    theirs = ExecutionEngine(eigh.kernels, compute=compute).aerial(mask)
    assert ours.max() > 0.1
    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)


class TestThinSVDEdges:
    def test_one_lit_sample_is_one_kernel_the_shifted_pupil(self):
        """One lit sample ``s``: ``T = J(s) a a^H`` with ``a`` the pupil
        shifted to ``s``, so the one kernel is ``sqrt(J(s)) a`` (an SVD fixes
        a kernel only up to a unit phase, which no aerial image sees)."""
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

        assert bank.order == 1
        assert bank.kernels.shape == (1, *shape)
        phase = np.vdot(expected, bank.kernels[0])
        phase /= abs(phase)
        np.testing.assert_allclose(bank.kernels[0], phase * expected,
                                   rtol=0, atol=1e-14)
        assert bank.eigenvalues[0] == pytest.approx(
            np.sum(np.abs(expected) ** 2), rel=1e-14)
        assert bank.total_energy == pytest.approx(bank.eigenvalues[0], rel=1e-14)

    def test_an_order_above_the_lit_count_keeps_the_rank_not_padding(self):
        """``max_order`` above the number of lit samples: both builds keep the
        ``rank``-many kernels the tolerance rule allows, nothing more."""
        arguments = _optics_arguments(BENCH_OPTICS, DipoleSource(), Pupil())
        lit = int(np.count_nonzero(shifted_pupil_stack(*arguments)[1]))
        assert lit < 100
        svd = socs_kernels(*arguments, max_order=100)
        eigh = decompose_tcc(compute_tcc(*arguments), max_order=100)
        assert svd.order == eigh.order <= lit
        assert svd.kernels.shape == (svd.order, *eigh.kernel_shape)
        assert np.all(svd.eigenvalues > 1e-9 * svd.eigenvalues[0])

    def test_an_all_dark_source_is_refused(self):
        shape = _kernel_shape(SMALL_OPTICS)
        arguments = _optics_arguments(SMALL_OPTICS, PixelatedSource(np.zeros(shape)),
                                      Pupil())
        with pytest.raises(ValueError, match="all-zero source map"):
            socs_kernels(*arguments)
        with pytest.raises(ValueError, match="all-zero source map"):
            compute_tcc(*arguments)
