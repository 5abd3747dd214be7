"""Numerical precision policy threaded through the whole engine stack.

The paper's accuracy targets (sub-percent CD errors, ~1e-2 relative aerial
intensity) are far looser than double precision, so the imaging engines can
trade precision for speed: single-precision transforms move half the bytes,
and the batched core's byte-denominated chunk budget fits twice the masks per
chunk.  A :class:`Precision` names the dtype pair every layer agrees on:

* masks / aerial intensities use :attr:`Precision.real_dtype`,
* spectra / kernel banks use :attr:`Precision.complex_dtype`,
* the kernel-bank cache keeps float64 banks and each engine casts its own
  copy once, so banks never mix dtypes,
* :attr:`Precision.aerial_rtol` documents the relative tolerance against the
  float64 reference that the property tests pin.

``float64`` stays the default everywhere; ``float32`` is strictly opt-in
(``ComputeConfig(precision=...)`` or ``--precision`` on the CLI).  A third
spelling, ``auto``, defers the choice to :func:`autotune_precision`: once a
kernel bank is known, float32 is picked exactly when the bank's own SOCS
truncation error already dominates the float32 dtype error — measured once
per bank, resolved to a concrete policy before any worker sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

#: The deferred spelling: engines resolve it per kernel bank via
#: :func:`autotune_precision`; :func:`resolve_precision` refuses it (no bank
#: in sight) with a pointer to the places that accept it.
AUTO_PRECISION = "auto"


@dataclass(frozen=True)
class Precision:
    """A named pair of real / complex dtypes plus its documented tolerance."""

    name: str
    real_dtype: np.dtype = field(repr=False)
    complex_dtype: np.dtype = field(repr=False)
    #: Documented relative tolerance of aerial intensities against the
    #: float64 reference path (0.0 means "is the reference").
    aerial_rtol: float = 0.0

    @property
    def complex_itemsize(self) -> int:
        """Bytes per complex sample — the unit of the chunk-budget arithmetic."""
        return int(np.dtype(self.complex_dtype).itemsize)

    def as_real(self, array: np.ndarray) -> np.ndarray:
        """Cast to the policy's real dtype (no copy when already right)."""
        return np.asarray(array, dtype=self.real_dtype)


FLOAT64 = Precision(name="float64", real_dtype=np.dtype(np.float64),
                    complex_dtype=np.dtype(np.complex128), aerial_rtol=0.0)
#: float32 aerial images agree with float64 to ~1e-4 relative (pinned by
#: ``tests/test_backend.py``); the documented guarantee is deliberately
#: looser than the typically observed ~1e-6.
FLOAT32 = Precision(name="float32", real_dtype=np.dtype(np.float32),
                    complex_dtype=np.dtype(np.complex64), aerial_rtol=1e-4)

_PRECISIONS = {FLOAT64.name: FLOAT64, FLOAT32.name: FLOAT32}


def available_precisions() -> tuple:
    """Names of the supported precision policies."""
    return tuple(sorted(_PRECISIONS))


def is_auto_precision(precision: Optional[Union[str, "Precision"]]) -> bool:
    """Whether the requested precision is the deferred ``auto`` policy."""
    return precision == AUTO_PRECISION


def autotune_precision(kernels: np.ndarray) -> Precision:
    """Pick float32 when SOCS truncation error already dominates dtype error.

    A truncated SOCS bank carries an intrinsic model error of the order of
    the weakest retained kernel's energy share — the eigenvalue tail the
    truncation dropped is at most about that large.  When that share is at
    or above the float32 policy's documented aerial tolerance
    (:attr:`Precision.aerial_rtol`), dropping to single precision adds
    nothing measurable to the total error, so the cheaper dtype pair wins;
    banks truncated tighter than float32 resolution stay float64.  The
    measurement is one reduction over the bank — done once per bank, at
    engine construction / spec normalisation, never per chunk.
    """
    kernels = np.asarray(kernels)
    if kernels.ndim != 3:
        raise ValueError("kernels must have shape (r, n, m)")
    energies = np.sum(np.abs(kernels.astype(np.complex128)) ** 2, axis=(1, 2))
    total = float(np.sum(energies))
    if total <= 0.0:
        return FLOAT64
    truncation_share = float(np.min(energies)) / total
    return FLOAT32 if truncation_share >= FLOAT32.aerial_rtol else FLOAT64


def resolve_precision(precision: Optional[Union[str, "Precision"]] = None,
                      ) -> Precision:
    """The policy object of ``None`` (:data:`FLOAT64`), a :class:`Precision`
    or a policy name (``"float64"`` / ``"float32"``).

    Any other value fails loudly with the list of supported precisions; the
    deferred ``auto`` spelling is rejected here with a pointer to the
    bank-aware resolvers.
    """
    if precision is None:
        return FLOAT64
    if isinstance(precision, Precision):
        return precision
    if precision == AUTO_PRECISION:
        raise ValueError(
            "precision 'auto' needs a kernel bank to measure truncation "
            "error against; pass it to ExecutionEngine / EngineSpec / "
            "the CLI --precision flag (resolved via autotune_precision) "
            "instead of resolve_precision")
    if isinstance(precision, str) and precision in _PRECISIONS:
        return _PRECISIONS[precision]
    raise ValueError(
        f"unknown precision {precision!r}; supported precisions: "
        f"{', '.join(available_precisions())}")
