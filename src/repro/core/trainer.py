"""Training loop for Nitho (Algorithm 1) with mini-batching and Adam.

The trainer is deliberately small: the mask-dependent computations (FFT,
crop) are pre-computed once because they carry no learnable parameters, and
only the CMLP forward / SOCS combination is replayed every step of the
shared minibatch loop (:func:`repro.nn.optim.fit_minibatches`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import nn
from ..nn.optim import fit_minibatches


class NithoTrainer:
    """Runs Algorithm 1 on a :class:`~repro.core.nitho.NithoModel`."""

    def __init__(self, model, optimizer: Optional[nn.Optimizer] = None):
        self.model = model
        self.optimizer = optimizer or nn.Adam(model.network.parameters(),
                                              lr=model.config.learning_rate)
        self._base_lr = self.optimizer.lr

    def fit(self, masks: np.ndarray, aerials: np.ndarray,
            epochs: Optional[int] = None, verbose: bool = False) -> List[float]:
        """Train on mask/aerial pairs; returns the mean per-epoch MSE loss."""
        config = self.model.config
        # Every fit decays from the configured rate, however often it is called.
        self.optimizer.lr = self._base_lr
        return fit_minibatches(
            self.optimizer, self.model.forward_aerial,
            self.model.prepare_spectra(masks), self.model.prepare_targets(aerials),
            epochs=epochs or config.epochs, batch_size=config.batch_size,
            seed=config.seed, min_lr_fraction=0.05, name="nitho",
            verbose=verbose)

    def evaluate(self, masks: np.ndarray, aerials: np.ndarray) -> float:
        """Mean MSE on the training-loss grid without updating parameters."""
        prediction = self.model.forward_aerial(self.model.prepare_spectra(masks))
        return float(np.mean((prediction.data - self.model.prepare_targets(aerials)) ** 2))
