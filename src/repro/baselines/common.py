"""Shared training/inference harness for the image-to-image baseline models.

TEMPO and DOINN are, for the purposes of the paper's comparison, real-valued
networks that map a mask image directly to an aerial (or resist) image.  The
:class:`ImageToImageModel` wrapper gives them the same ``fit`` /
``predict_aerial`` / ``predict_resist`` interface as
:class:`~repro.core.nitho.NithoModel`, so every experiment driver treats the
three models uniformly.

Substitution note: the published baselines train on 2000x2000 GPU tensors;
here they train on ``work_resolution``-sized images (band-limited resampling)
and their predictions are resampled back to full tile resolution before any
metric is computed.  This preserves their inductive bias (image-to-image
mapping learned from the training distribution) which is what the comparison
is about.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..nn.optim import fit_minibatches
from ..nn.tensor import Tensor
from ..optics.resist import ConstantThresholdResist
from ..utils.imaging import fourier_resize


class ImageToImageModel:
    """Wrapper giving CNN baselines the common lithography-model interface."""

    #: display name used by experiment tables ("TEMPO", "DOINN")
    name = "baseline"

    def __init__(self, network: nn.Module, work_resolution: int = 32,
                 learning_rate: float = 2e-3, epochs: int = 40, batch_size: int = 4,
                 resist_threshold: float = 0.225, seed: int = 0):
        if work_resolution <= 0:
            raise ValueError("work_resolution must be positive")
        self.network = network
        self.work_resolution = work_resolution
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.seed = seed
        self.resist_model = ConstantThresholdResist(resist_threshold)
        self.history: List[float] = []

    # ------------------------------------------------------------------ #
    # resolution handling
    # ------------------------------------------------------------------ #
    def _to_work(self, images: np.ndarray) -> np.ndarray:
        images = np.asarray(images, dtype=float)
        if images.ndim == 2:
            images = images[None]
        res = self.work_resolution
        if images.shape[-1] == res:
            return images
        return fourier_resize(images, (res, res))

    def _to_full(self, images: np.ndarray, tile_size: int) -> np.ndarray:
        if images.shape[-1] == tile_size:
            return images
        return fourier_resize(images, (tile_size, tile_size))

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit(self, masks: np.ndarray, aerials: np.ndarray,
            epochs: Optional[int] = None, verbose: bool = False) -> List[float]:
        """Train the network to map masks to aerial images (pixel-wise MSE)."""
        history = fit_minibatches(
            nn.Adam(self.network.parameters(), lr=self.learning_rate),
            lambda batch: self.network(Tensor(batch)),
            self._to_work(masks)[:, None, :, :],
            self._to_work(aerials)[:, None, :, :],
            epochs=epochs or self.epochs, batch_size=self.batch_size,
            seed=self.seed, min_lr_fraction=0.1, name=self.name,
            verbose=verbose)
        self.history.extend(history)
        return history

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    def predict_aerial(self, mask: np.ndarray) -> np.ndarray:
        """Aerial-image prediction resampled back to the mask's resolution."""
        mask = np.asarray(mask, dtype=float)
        if mask.ndim != 2:
            raise ValueError("mask must be a 2-D image")
        tile_size = mask.shape[-1]
        work = self._to_work(mask[None])[:, None, :, :]
        prediction = self.network(Tensor(work)).data[0, 0]
        full = self._to_full(prediction[None], tile_size)[0]
        # Clip after the band-limited resize: the interpolation can undershoot zero.
        return np.clip(full, 0.0, None)

    def predict_resist(self, mask: np.ndarray) -> np.ndarray:
        return self.resist_model.develop(self.predict_aerial(mask))

    def predict_batch(self, masks: np.ndarray) -> np.ndarray:
        """Aerial predictions for a whole batch in one network forward pass."""
        masks = np.asarray(masks, dtype=float)
        if masks.ndim == 2:
            masks = masks[None]
        tile_size = masks.shape[-1]
        work = self._to_work(masks)[:, None, :, :]
        predictions = self.network(Tensor(work)).data[:, 0]
        full = self._to_full(predictions, tile_size)
        return np.clip(full, 0.0, None)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def num_parameters(self) -> int:
        return self.network.num_parameters()

    def size_megabytes(self) -> float:
        return self.network.size_megabytes()

    def state_dict(self) -> Dict[str, np.ndarray]:
        return self.network.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.network.load_state_dict(state)
