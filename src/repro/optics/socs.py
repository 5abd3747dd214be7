"""Sum of Coherent Systems (SOCS) decomposition of the TCC (Eqs. (3)-(4)).

The TCC matrix is Hermitian positive semi-definite; its eigendecomposition
yields coherent kernels (:func:`decompose_tcc`).  Because the TCC is a Gram
matrix of the lit shifted-pupil stack, the same kernels come from a thin SVD
of that stack without ever forming the TCC (:func:`socs_kernels`, the
production build).  Truncating the expansion to the ``r`` largest
eigenvalues gives the fast approximation used both by production OPC tools
and by the Nitho training target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .pupil import Pupil
from .source import Source
from .tcc import TCCResult, shifted_pupil_stack

# Eigenvalues at or below this fraction of the largest are dropped.
ENERGY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SOCSKernels:
    """Coherent optical kernels in the spatial-frequency domain.

    Attributes
    ----------
    kernels:
        Array of shape ``(r, n, m)``; kernel ``i`` already includes
        ``sqrt(eigenvalue_i)`` so the aerial image is simply
        ``sum_i |IFFT(kernels[i] * mask_spectrum)|^2``.
    eigenvalues:
        The ``r`` retained eigenvalues (descending, non-negative).
    total_energy:
        Trace of the source TCC (the sum of *all* eigenvalues, retained or
        not); 0.0 when unknown, in which case :meth:`energy_captured`
        reports full capture.
    """

    kernels: np.ndarray
    eigenvalues: np.ndarray
    kernel_shape: Tuple[int, int]
    total_energy: float = 0.0

    @property
    def order(self) -> int:
        return self.kernels.shape[0]

    def energy_captured(self) -> float:
        """Fraction of total TCC energy captured by the retained kernels (0..1]."""
        total = float(self.eigenvalues.sum()) if self.eigenvalues.size else 0.0
        if self.total_energy <= 0:
            return 1.0
        return total / self.total_energy


def _truncate(eigenvalues: np.ndarray, eigenvectors: np.ndarray,
              kernel_shape: Tuple[int, int], max_order: Optional[int],
              energy_tolerance: float) -> SOCSKernels:
    """Kernels from descending, non-negative eigenpairs (vectors as columns).

    Keeps every eigenvalue above ``energy_tolerance`` times the largest, at
    most ``max_order`` of them and at least one; ``total_energy`` is the sum
    of all eigenvalues given.
    """
    if eigenvalues.size and eigenvalues[0] > 0:
        keep = eigenvalues > energy_tolerance * eigenvalues[0]
    else:
        keep = np.zeros_like(eigenvalues, dtype=bool)
    count = int(keep.sum())
    if max_order is not None:
        count = min(count, int(max_order))
    count = max(count, 1)

    n, m = kernel_shape
    kept_values = eigenvalues[:count]
    kept_vectors = eigenvectors[:, :count]
    kernels = np.ascontiguousarray(
        (np.sqrt(kept_values)[None, :] * kept_vectors).T.reshape(count, n, m))

    return SOCSKernels(kernels=kernels, eigenvalues=kept_values, kernel_shape=(n, m),
                       total_energy=float(eigenvalues.sum()))


def decompose_tcc(tcc: TCCResult, max_order: Optional[int] = None,
                  energy_tolerance: float = ENERGY_TOLERANCE) -> SOCSKernels:
    """Eigendecompose a TCC matrix into SOCS kernels.

    Parameters
    ----------
    max_order:
        Keep at most this many kernels.  ``None`` keeps every kernel whose
        eigenvalue exceeds ``energy_tolerance`` times the largest one.
    energy_tolerance:
        Relative eigenvalue threshold below which kernels are discarded.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(tcc.matrix)
    # eigh returns ascending order; we want the dominant kernels first.
    order = np.argsort(eigenvalues)[::-1]
    # Numerical noise can produce tiny negative eigenvalues; clamp them.
    return _truncate(np.clip(eigenvalues[order], 0.0, None),
                     eigenvectors[:, order], tcc.kernel_shape, max_order,
                     energy_tolerance)


def socs_kernels(source: Source, pupil: Pupil, kernel_shape: Tuple[int, int],
                 field_size_nm: float, wavelength_nm: float,
                 numerical_aperture: float,
                 max_order: Optional[int] = None) -> SOCSKernels:
    """The SOCS kernels of :func:`decompose_tcc` without forming the TCC.

    ``T = A diag(J) A^H = B B^H`` with ``B = A[:, J > 0] diag(sqrt(J))``, the
    shifted-pupil stack (:func:`~repro.optics.tcc.shifted_pupil_stack`) over
    the source samples that carry light.  The thin SVD ``B = U S V^H`` gives
    the eigenpairs of ``T`` directly: eigenvalues ``S**2`` (already
    descending and non-negative), eigenvectors the columns of ``U``, and
    ``total_energy = sum(S**2) = trace T``.  ``B`` has ``n*m`` rows but only
    as many columns as lit source samples (64 against 841 rows on 256 px /
    4 nm optics under an annular 0.5-0.8 source), so this costs a few
    milliseconds where the ``(n*m, n*m)`` matrix and its dense
    eigendecomposition cost about half a second.  Truncation follows
    :func:`decompose_tcc`'s default rule exactly.
    """
    shifted, weights = shifted_pupil_stack(
        source, pupil, kernel_shape, field_size_nm, wavelength_nm,
        numerical_aperture)
    lit = weights > 0
    stack = shifted[:, lit] * np.sqrt(weights[lit])[None, :]
    vectors, singular_values, _ = np.linalg.svd(stack, full_matrices=False)
    return _truncate(singular_values ** 2, vectors, tuple(kernel_shape),
                     max_order, ENERGY_TOLERANCE)


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
