"""Sum of Coherent Systems (SOCS) decomposition of the TCC (Eqs. (3)-(4)).

The TCC matrix is Hermitian positive semi-definite; its eigendecomposition
yields coherent kernels (:func:`decompose_tcc`, the reference).  Truncating
the expansion to the ``r`` largest eigenvalues gives the fast approximation
used both by production OPC tools and by the Nitho training target.

The production build, :func:`socs_kernels`, never forms the TCC and images
with half the transforms.  A mask is real, so only the part of the TCC that
is symmetric under ``f -> -f`` reaches an aerial image; its eigenkernels can
all be chosen *real-field* (``K(-f) = conj K(f)``: the coherent field of a
real mask is real), and since ``|a + i b|^2 = a^2 + b^2`` for real fields,
two of them packed as ``K_a + i K_b`` image with one kernel product and one
inverse transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .kernel_dims import kernel_half_width
from .pupil import Pupil
from .source import Source
from .tcc import TCCResult, shifted_pupil_stack

# Eigenvalues at or below this fraction of the largest are dropped.
ENERGY_TOLERANCE = 1e-9

#: How :func:`socs_kernels` builds a bank, named in the kernel-bank cache key
#: (``repro.engine.cache``), so a bank built another way — and its
#: ``kernels-*.npz`` file — is never served in place of this one.
BANK_BUILD = "packed-real-field"

# Rounding in the retained-trace comparison never adds a real kernel.
_TRACE_SLACK = 1e-12

# Eigenvalues this close (relative) are one degenerate eigenspace, which a
# bank keeps whole or not at all.
_CLUSTER_GAP = 1e-6


class UnpairedWindowError(ValueError):
    """An even kernel window that Eq. (10) did not clamp to the tile: its
    edge frequency ``-n/2`` has no mirror ``+n/2`` inside the window, so no
    kernel on it gives a real field."""


@dataclass(frozen=True)
class SOCSKernels:
    """Coherent optical kernels in the spatial-frequency domain.

    Attributes
    ----------
    kernels:
        Array of shape ``(t, n, m)``, scaled so the aerial image is simply
        ``sum_i |IFFT(kernels[i] * mask_spectrum)|^2``: ``t`` kernel
        products and inverse transforms.  From :func:`decompose_tcc` row
        ``i`` is eigenkernel ``i`` times ``sqrt(eigenvalue_i)``.  From
        :func:`socs_kernels` the bank is **packed**: row ``j`` is
        ``k_2j + i k_2j+1`` of two real-field eigenkernels (the last row
        alone when their count is odd), exact for real masks only.
        Learned banks (:class:`~repro.engine.execution.ExecutionEngine`
        takes any ``(r, n, m)`` stack) are not packed.
    eigenvalues:
        The retained eigenvalues (descending, non-negative), one per
        eigenkernel: ``2 t`` or ``2 t - 1`` of them for a packed bank.
    total_energy:
        Trace of the source TCC (the sum of *all* eigenvalues, retained or
        not); 0.0 when unknown.  ``eigenvalues.sum() / total_energy`` is
        the fraction of the TCC energy the bank captures.
    """

    kernels: np.ndarray
    eigenvalues: np.ndarray
    kernel_shape: Tuple[int, int]
    total_energy: float = 0.0

    @property
    def order(self) -> int:
        """Rows of :attr:`kernels`: the transforms an image costs."""
        return self.kernels.shape[0]

    def real_field_kernels(self) -> np.ndarray:
        """The real-field eigenkernels a packed bank (:func:`socs_kernels`)
        holds, one per eigenvalue, in order: row ``p = k_a + i k_b`` holds
        ``k_a = (p + P conj p) / 2`` and ``k_b = (p - P conj p) / 2i``."""
        count = self.eigenvalues.size
        if count not in (2 * self.order - 1, 2 * self.order):
            raise ValueError(f"{self.order} rows holding {count} eigenkernels "
                             "are not a packed bank")
        flat = self.kernels.reshape(self.order, -1)
        mirrored = flat[:, _mirror_indices(self.kernel_shape)].conj()
        pairs = np.stack([(flat + mirrored) / 2, (flat - mirrored) / 2j], axis=1)
        return pairs.reshape((-1,) + tuple(self.kernel_shape))[:count]


def _kept_count(eigenvalues: np.ndarray, max_order: Optional[int]) -> int:
    """How many of the descending ``eigenvalues`` a bank keeps: every one
    above ``ENERGY_TOLERANCE`` times the largest, at most ``max_order`` of
    them and at least one."""
    if eigenvalues.size and eigenvalues[0] > 0:
        count = int(np.count_nonzero(eigenvalues > ENERGY_TOLERANCE * eigenvalues[0]))
    else:
        count = 0
    if max_order is not None:
        count = min(count, int(max_order))
    return max(count, 1)


def _truncate(eigenvalues: np.ndarray, eigenvectors: np.ndarray,
              kernel_shape: Tuple[int, int], max_order: Optional[int]
              ) -> SOCSKernels:
    """Kernels from descending, non-negative eigenpairs (vectors as columns),
    cut by :func:`_kept_count`; ``total_energy`` is the sum of all
    eigenvalues given.
    """
    count = _kept_count(eigenvalues, max_order)
    n, m = kernel_shape
    kept_values = eigenvalues[:count]
    kept_vectors = eigenvectors[:, :count]
    kernels = np.ascontiguousarray(
        (np.sqrt(kept_values)[None, :] * kept_vectors).T.reshape(count, n, m))

    return SOCSKernels(kernels=kernels, eigenvalues=kept_values, kernel_shape=(n, m),
                       total_energy=float(eigenvalues.sum()))


def decompose_tcc(tcc: TCCResult, max_order: Optional[int] = None
                  ) -> SOCSKernels:
    """Eigendecompose a TCC matrix into SOCS kernels.

    Parameters
    ----------
    max_order:
        Keep at most this many kernels.  ``None`` keeps every kernel whose
        eigenvalue exceeds ``ENERGY_TOLERANCE`` times the largest one.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(tcc.matrix)
    # eigh returns ascending order; we want the dominant kernels first.
    order = np.argsort(eigenvalues)[::-1]
    # Numerical noise can produce tiny negative eigenvalues; clamp them.
    return _truncate(np.clip(eigenvalues[order], 0.0, None),
                     eigenvectors[:, order], tcc.kernel_shape, max_order)


def _mirror_indices(kernel_shape: Tuple[int, int]) -> np.ndarray:
    """Flat window index of ``-f`` for every flat index of ``f``: the
    permutation ``P`` of an ``(n, m)`` centred window (row ``i`` holds
    frequency ``i - n // 2``).  An even size mirrors modulo the window, its
    edge frequency ``-n/2`` onto itself: exact when the window is the
    tile's whole lattice, where ``+n/2`` aliases onto ``-n/2``.
    """
    rows, cols = ((2 * (size // 2) - np.arange(size)) % size
                  for size in kernel_shape)
    return (rows[:, None] * kernel_shape[1] + cols[None, :]).ravel()


def socs_kernels(source: Source, pupil: Pupil, kernel_shape: Tuple[int, int],
                 field_size_nm: float, wavelength_nm: float,
                 numerical_aperture: float,
                 max_order: Optional[int] = None) -> SOCSKernels:
    """A packed real-field SOCS bank, built without forming the TCC.

    ``T = A diag(J) A^H = B B^H`` with ``B = A[:, J > 0] diag(sqrt(J))``,
    the shifted-pupil stack (:func:`~repro.optics.tcc.shifted_pupil_stack`)
    over the source samples that carry light.  A real mask's aerial image
    sees only ``T~ = (T + P conj(T) P) / 2`` (``P``: ``f -> -f``,
    ``_mirror_indices``), which is real in the basis ``a -> even(a) +
    i odd(a)`` of real-field vectors.  There it is ``X X^T`` for the real
    stack ``X = [even(Re B) + odd(Im B) | even(Im B) - odd(Re B)]``, so one
    thin real SVD ``X = U S V^T`` gives its eigenpairs: eigenvalues
    ``S**2`` (``sum(S**2) = trace T~ = trace T = total_energy``) and
    real-field eigenkernels ``(even(u_j) + i odd(u_j)) s_j``.  Pairs of them
    are packed ``k_2j + i k_2j+1`` (:class:`SOCSKernels`).  ``B`` has
    ``n*m`` rows but only as many columns as lit source samples (64 against
    841 rows on 256 px / 4 nm optics under an annular 0.5-0.8 source), so
    the build costs milliseconds.

    ``max_order`` = ``r`` bounds the truncation error, not the bank's rows:
    the bank keeps the fewest real-field kernels whose retained trace is at
    least that of ``T``'s top-``r`` eigenkernels (cut by
    :func:`decompose_tcc`'s default rule), plus the rest of the last one's
    degenerate eigenspace if the cut would split it (eigenvalues within
    1e-6, relative): one vector of a 2-D eigenspace is an arbitrary one, and
    would image a symmetric source's horizontal and vertical lines unlike.
    The share of the trace it discards — Pati & Kailath's worst-case bound,
    :func:`truncation_error_bound` — is therefore never above that of the
    ``r``-kernel eigen bank.  At focus under a symmetric source ``T~ = T``
    and ``r = 24`` is 12 transforms; defocus takes up to 21 on the bench
    optics.

    An even window size is exact only as the tile's whole lattice, the one
    way Eq. (10) yields one (:func:`~repro.optics.kernel_dims.
    kernel_dimensions` clamps to the tile); an even size that Eq. (10) did
    not clamp raises :class:`UnpairedWindowError`.
    """
    natural = kernel_half_width(field_size_nm, wavelength_nm,
                                numerical_aperture) * 2 + 1
    if any(size % 2 == 0 and size >= natural for size in kernel_shape):
        raise UnpairedWindowError(
            f"kernel window {tuple(kernel_shape)} has an even size that "
            f"Eq. (10) does not clamp (its window is {natural} wide): the "
            "edge frequency has no mirror, so no kernel on it is real-field")
    shifted, weights = shifted_pupil_stack(
        source, pupil, kernel_shape, field_size_nm, wavelength_nm,
        numerical_aperture)
    lit = weights > 0
    stack = shifted[:, lit] * np.sqrt(weights[lit])[None, :]
    mirror = _mirror_indices(kernel_shape)
    mirrored = stack[mirror]
    even, odd = (stack + mirrored) / 2, (stack - mirrored) / 2
    vectors, singular_values, _ = np.linalg.svd(
        np.concatenate([even.real + odd.imag, even.imag - odd.real], axis=1),
        full_matrices=False)
    eigenvalues = singular_values ** 2

    # The retained trace of T's own top-r eigen bank is the budget.
    complex_values = np.linalg.svd(stack, compute_uv=False) ** 2
    budget = complex_values[:_kept_count(complex_values, max_order)].sum()
    usable = _kept_count(eigenvalues, None)
    reached = np.cumsum(eigenvalues[:usable]) >= budget * (1 - _TRACE_SLACK)
    count = int(np.argmax(reached)) + 1 if reached.any() else usable
    # A cut inside a degenerate eigenspace would keep an arbitrary vector of
    # it, and with it break the source's symmetry: keep the space whole.
    while (count < usable
           and eigenvalues[count] >= eigenvalues[count - 1] * (1 - _CLUSTER_GAP)):
        count += 1

    scaled = vectors[:, :count] * singular_values[:count]
    kernels = ((scaled + scaled[mirror]) / 2
               + 0.5j * (scaled - scaled[mirror])).T       # real-field
    packed = kernels[0::2].copy()                          # C-contiguous
    packed[:count // 2] += 1j * kernels[1::2]
    return SOCSKernels(kernels=packed.reshape((-1,) + tuple(kernel_shape)),
                       eigenvalues=eigenvalues[:count],
                       kernel_shape=tuple(kernel_shape),
                       total_energy=float(eigenvalues.sum()))


def truncation_error_bound(tcc: TCCResult, order: int) -> float:
    """Upper bound on the relative aerial-intensity error of an ``order``-term SOCS.

    Following Pati & Kailath, the worst-case intensity error of truncating the
    coherent decomposition is bounded by the sum of the discarded eigenvalues
    relative to the total (the trace of the TCC).
    """
    eigenvalues = np.clip(np.sort(np.linalg.eigvalsh(tcc.matrix))[::-1], 0.0, None)
    total = float(eigenvalues.sum())
    if total <= 0:
        return 0.0
    discarded = float(eigenvalues[order:].sum()) if order < eigenvalues.size else 0.0
    return discarded / total
