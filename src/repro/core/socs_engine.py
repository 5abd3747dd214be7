"""Kernel-bank forward-lithography engine ("fast lithography", Section III-C1).

After training, Nitho's predicted kernels are stored exactly like calibrated
TCC kernels; imaging new masks is then a handful of FFTs with no network
inference.  :class:`KernelBankEngine` provides that interface for *any*
kernel bank — golden SOCS kernels from :mod:`repro.optics.socs` or learned
kernels exported from a :class:`~repro.core.nitho.NithoModel` — and is now a
thin tile-size-checking veneer over the unified
:class:`~repro.engine.execution.ExecutionEngine`, so the simulator, the model
and the throughput benchmarks all share the same vectorised batched hot path.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..engine.execution import ExecutionEngine


class KernelBankEngine(ExecutionEngine):
    """Forward lithography from a fixed stack of frequency-domain kernels.

    Inherits the vectorised batch / layout machinery from
    :class:`~repro.engine.execution.ExecutionEngine` and adds the historical
    per-tile shape validation: when ``tile_size_px`` is given, single-tile
    calls reject masks of any other size.
    """

    def _check_tile(self, mask: np.ndarray) -> np.ndarray:
        mask = self.precision.as_real(mask)
        if self.tile_size_px is not None and mask.shape[-2:] != (self.tile_size_px,
                                                                 self.tile_size_px):
            raise ValueError(
                f"mask shape {mask.shape[-2:]} does not match engine tile {self.tile_size_px}")
        return mask

    def aerial(self, mask: np.ndarray) -> np.ndarray:
        """Aerial image of one mask tile."""
        return super().aerial(self._check_tile(mask))

    def aerial_batch(self, masks: Iterable[np.ndarray],
                     output_shape: Optional[Tuple[int, int]] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        """Aerial images of a batch of tiles in one vectorised pass."""
        if not isinstance(masks, np.ndarray):
            masks = np.stack([self.precision.as_real(mask) for mask in masks], axis=0)
        masks = self.precision.as_real(masks)
        if masks.ndim != 3:
            raise ValueError("masks must have shape (B, H, W)")
        return super().aerial_batch(self._check_tile(masks),
                                    output_shape=output_shape, out=out)
