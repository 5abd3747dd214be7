"""Gradient-based inverse lithography (ILT) on top of a differentiable kernel bank.

The paper motivates SOCS kernels with "inverse imaging calculation tasks such
as mask optimization"; because the whole Nitho imaging path is differentiable,
the same machinery can optimise the *mask* instead of the kernels.  This module
implements that extension: pixel-based ILT where the mask is parameterised by
a sigmoid over free logits and optimised so the (soft-thresholded) print
matches a target pattern.

It works identically with golden SOCS kernels and with kernels exported from a
trained :class:`~repro.core.nitho.NithoModel`, which is exactly the use case
the paper advertises for the learned kernel bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor


@dataclass
class ILTSettings:
    """Hyperparameters of the gradient-based ILT loop."""

    iterations: int = 120
    learning_rate: float = 0.3
    resist_threshold: float = 0.225
    resist_steepness: float = 40.0
    mask_steepness: float = 6.0
    curvature_weight: float = 1e-3

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.resist_threshold <= 0:
            raise ValueError("resist_threshold must be positive")
        if self.resist_steepness <= 0 or self.mask_steepness <= 0:
            raise ValueError("steepness parameters must be positive")


class GradientILT:
    """Pixel-based inverse lithography against a fixed frequency-domain kernel bank."""

    def __init__(self, kernels: np.ndarray, settings: Optional[ILTSettings] = None):
        kernels = np.asarray(kernels)
        if kernels.ndim != 3:
            raise ValueError("kernels must have shape (r, n, m)")
        self.kernels = Tensor(kernels.astype(np.complex128))
        self.settings = settings or ILTSettings()

    # ------------------------------------------------------------------ #
    # differentiable forward imaging
    # ------------------------------------------------------------------ #
    def _aerial(self, mask: Tensor) -> Tensor:
        """Aerial image of a (real, continuous) mask tensor through the kernel bank."""
        n, m = self.kernels.shape[-2:]
        spectrum = F.crop_center(F.fftshift2(F.fft2(F.to_complex(mask))), n, m)
        intensity = F.socs_intensity(self.kernels, F.reshape(spectrum, (1, n, m)),
                                     mask.shape)
        return F.reshape(intensity, mask.shape)

    def _soft_resist(self, aerial: Tensor) -> Tensor:
        shifted = F.sub(aerial, self.settings.resist_threshold)
        return F.sigmoid(F.mul(shifted, self.settings.resist_steepness))

    # ------------------------------------------------------------------ #
    # optimisation
    # ------------------------------------------------------------------ #
    def optimise(self, target: np.ndarray, initial_mask: Optional[np.ndarray] = None,
                 verbose: bool = False) -> Dict[str, object]:
        """Optimise a mask whose print matches ``target`` (a binary pattern).

        Returns a dict with the continuous mask, the binarised mask, the final
        aerial image, the soft print and the loss history.
        """
        target = np.asarray(target, dtype=float)
        if target.ndim != 2:
            raise ValueError("target must be a 2-D binary pattern")
        if initial_mask is None:
            initial_mask = target.copy()
        initial_mask = np.clip(np.asarray(initial_mask, dtype=float), 0.0, 1.0)

        # Parameterise the mask by logits so that it stays in (0, 1).
        logits0 = (initial_mask - 0.5) * 2.0  # roughly +-1
        logits = Tensor(logits0 * self.settings.mask_steepness / 2.0, requires_grad=True)
        optimizer = nn.Adam([logits], lr=self.settings.learning_rate)
        target_tensor = Tensor(target)

        history: List[float] = []
        for iteration in range(self.settings.iterations):
            mask = F.sigmoid(F.mul(logits, 1.0))
            aerial = self._aerial(mask)
            printed = self._soft_resist(aerial)
            fidelity = F.mse_loss(printed, target_tensor)
            # Discourage grey pixels so the optimised mask is manufacturable.
            curvature = F.mean(F.mul(F.mul(mask, F.sub(1.0, mask)), 4.0))
            loss = F.add(fidelity, F.mul(curvature, self.settings.curvature_weight))

            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            history.append(float(fidelity.item()))
            if verbose and (iteration + 1) % 20 == 0:
                print(f"[ilt] iter {iteration + 1:4d}  fidelity={history[-1]:.4e}")

        final_mask = 1.0 / (1.0 + np.exp(-logits.data))
        binary_mask = (final_mask > 0.5).astype(float)
        final_aerial = self._aerial(Tensor(binary_mask)).data
        return {
            "mask": final_mask,
            "binary_mask": binary_mask,
            "aerial": final_aerial,
            "resist": (final_aerial > self.settings.resist_threshold).astype(np.uint8),
            "history": history,
        }


def print_fidelity(resist: np.ndarray, target: np.ndarray) -> float:
    """Class-averaged IOU between a printed pattern and its target, in percent."""
    from ..metrics.segmentation import mean_iou

    return mean_iou(target, resist)
