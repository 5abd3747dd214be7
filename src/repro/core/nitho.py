"""The Nitho model: physics-informed optical-kernel regression (Algorithm 1).

``NithoModel`` wires together the pieces described in Section III of the paper:

1. the optical-kernel window is sized from the resolution limit (Eq. (10)),
2. the window coordinates are positional-encoded into complex features
   (Eq. (15) by default),
3. a CMLP maps features to kernel values (Eq. (13) / (16)),
4. the predicted kernels are combined with the (non-parametric) mask spectrum
   through the SOCS formula (Eq. (4)) — one autograd node over the
   production core's field expression, ``F.socs_intensity`` — and
5. an MSE loss on the aerial image drives plain gradient descent, on the
   grid the engine images a tile on (``intensity_grid``: the band-limit grid
   when it fits, else the tile), where the band-limited intensity makes the
   loss the full-resolution one up to rounding.

After training, the predicted kernels are exported once and all subsequent
lithography uses the kernel bank directly ("fast lithography", Section III-C1)
— there is no network inference at simulation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.batched import intensity_grid
from ..nn import functional as F
from ..nn.tensor import Tensor
from ..optics.aerial import mask_spectrum
from ..optics.kernel_dims import kernel_dimensions
from ..optics.resist import ConstantThresholdResist
from ..optics.simulator import OpticsConfig
from .cmlp import CMLP, RealMLP
from .encoding import PositionalEncoding, kernel_coordinates, make_encoding


@dataclass
class NithoConfig:
    """Hyperparameters of the Nitho framework.

    Attributes
    ----------
    num_kernels:
        Number of predicted optical kernels ``r`` (paper: r < 60).
    hidden_dim / num_hidden_blocks:
        CMLP width and number of ``CLinear -> CReLU`` blocks (Eq. (12)).
    encoding / encoding_kwargs:
        Positional-encoding family: ``"rff"`` (paper default, Eq. (15)),
        ``"nerf"`` (Eq. (14)) or ``"none"``.
    kernel_shape_override:
        Explicit ``(n, m)`` kernel window, bypassing Eq. (10) — used by the
        Fig. 6(b) kernel-size ablation and by the hyperparameter-search path
        when lambda / NA are unknown.
    learning_rate / batch_size / epochs / seed:
        Adam's initial rate (cosine-decayed to 5 % of it), minibatch size,
        training budget, and the seed of weights, features and shuffle.
    real_valued_mlp:
        Replace the CMLP with a real-valued MLP of the same topology
        (complex-vs-real ablation).

    The loss grid is the engine's, not a setting (module docstring).
    """

    num_kernels: int = 12
    hidden_dim: int = 64
    num_hidden_blocks: int = 3
    encoding: str = "rff"
    encoding_kwargs: Dict = field(default_factory=dict)
    kernel_shape_override: Optional[Tuple[int, int]] = None
    learning_rate: float = 5e-3
    batch_size: int = 4
    epochs: int = 60
    seed: int = 0
    real_valued_mlp: bool = False

    def __post_init__(self) -> None:
        if self.num_kernels <= 0:
            raise ValueError("num_kernels must be positive")
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")


class NithoModel:
    """Physics-informed lithography model with learned optical kernels."""

    def __init__(self, optics: Optional[OpticsConfig] = None,
                 config: Optional[NithoConfig] = None):
        self.optics = optics or OpticsConfig()
        self.config = config or NithoConfig()

        if self.config.kernel_shape_override is not None:
            self.kernel_shape = tuple(self.config.kernel_shape_override)
        else:
            self.kernel_shape = kernel_dimensions(
                self.optics.tile_size_px, self.optics.tile_size_px,
                wavelength_nm=self.optics.wavelength_nm,
                numerical_aperture=self.optics.numerical_aperture,
                pixel_size_nm=self.optics.pixel_size_nm)
        tile = self.optics.tile_size_px
        #: Where the training loss is evaluated: the engine's grid for a tile.
        self.loss_grid = intensity_grid(*self.kernel_shape, tile, tile)

        encoding_kwargs = dict(self.config.encoding_kwargs)
        encoding_kwargs.setdefault("seed", self.config.seed)
        if self.config.encoding.lower() in ("none", "identity"):
            encoding_kwargs.pop("seed", None)
        if self.config.encoding.lower() == "nerf":
            encoding_kwargs.pop("seed", None)
        self.encoding: PositionalEncoding = make_encoding(self.config.encoding, **encoding_kwargs)

        coordinates = kernel_coordinates(self.kernel_shape)
        self._encoded_coordinates = Tensor(self.encoding(coordinates))

        mlp_cls = RealMLP if self.config.real_valued_mlp else CMLP
        self.network = mlp_cls(
            input_dim=self.encoding.output_dim,
            hidden_dim=self.config.hidden_dim,
            num_hidden_blocks=self.config.num_hidden_blocks,
            num_kernels=self.config.num_kernels,
            seed=self.config.seed)
        if self.config.real_valued_mlp:
            # A real MLP cannot consume complex features; feed raw real features.
            self._encoded_coordinates = Tensor(np.real(self.encoding(coordinates)))

        self.resist_model = ConstantThresholdResist(self.optics.resist_threshold)
        self._exported_kernels: Optional[np.ndarray] = None
        self._engine = None
        self.history: List[float] = []

    # ------------------------------------------------------------------ #
    # data preparation
    # ------------------------------------------------------------------ #
    def prepare_spectra(self, masks: np.ndarray) -> np.ndarray:
        """Cropped, centred mask spectra for a batch of masks (Algorithm 1 lines 6-7)."""
        masks = np.asarray(masks, dtype=float)
        if masks.ndim == 2:
            masks = masks[None]
        # mask_spectrum transforms the last two axes, so one call handles the batch.
        return mask_spectrum(masks, self.kernel_shape)

    def prepare_targets(self, aerials: np.ndarray) -> np.ndarray:
        """Resample golden aerial images to the :attr:`loss_grid`."""
        from ..utils.imaging import fourier_resize

        aerials = np.asarray(aerials, dtype=float)
        if aerials.ndim == 2:
            aerials = aerials[None]
        if self.loss_grid == aerials.shape[-2:]:
            return aerials
        return fourier_resize(aerials, self.loss_grid)

    # ------------------------------------------------------------------ #
    # differentiable forward pass
    # ------------------------------------------------------------------ #
    def predicted_kernels_tensor(self) -> Tensor:
        """Predicted kernel stack ``K_hat`` of shape (r, n, m) as a graph tensor."""
        return self.network.predict_kernels(self._encoded_coordinates, self.kernel_shape)

    def forward_aerial(self, spectra: np.ndarray) -> Tensor:
        """Differentiable SOCS imaging (Algorithm 1 lines 8-12) of ``(B, n, m)``
        spectra from :meth:`prepare_spectra`, on the :attr:`loss_grid`."""
        intensity = F.socs_intensity(self.predicted_kernels_tensor(), spectra,
                                     self.loss_grid)
        # The mask spectra were normalised against the full tile; evaluating the
        # orthonormal inverse FFT on a smaller grid rescales the field by
        # tile/grid, so compensate to keep intensities in physical units (this
        # keeps the learned kernels directly usable at full resolution).
        grid_h, grid_w = self.loss_grid
        tile = self.optics.tile_size_px
        scale = (grid_h * grid_w) / float(tile * tile)
        return intensity if scale == 1.0 else F.mul(intensity, scale)

    # ------------------------------------------------------------------ #
    # training (Algorithm 1)
    # ------------------------------------------------------------------ #
    def fit(self, masks: np.ndarray, aerials: np.ndarray,
            epochs: Optional[int] = None, verbose: bool = False) -> List[float]:
        """Optimise the CMLP on mask/aerial pairs; returns the per-epoch loss history."""
        from .trainer import NithoTrainer

        trainer = NithoTrainer(self)
        history = trainer.fit(masks, aerials, epochs=epochs, verbose=verbose)
        self.history.extend(history)
        self._exported_kernels = None
        self._engine = None
        return history

    # ------------------------------------------------------------------ #
    # fast lithography (post-training inference)
    # ------------------------------------------------------------------ #
    def export_kernels(self) -> np.ndarray:
        """Predicted kernels as a plain complex array (stored like real TCC kernels)."""
        if self._exported_kernels is None:
            kernels = self.predicted_kernels_tensor()
            self._exported_kernels = kernels.data.copy()
        return self._exported_kernels

    def predict_aerial(self, mask: np.ndarray) -> np.ndarray:
        """Aerial image of a mask at full tile resolution using the stored kernel bank."""
        return self.execution_engine().aerial(mask)

    def predict_resist(self, mask: np.ndarray) -> np.ndarray:
        """Binary resist prediction via the constant-threshold model."""
        return self.resist_model.develop(self.predict_aerial(mask))

    def predict_batch(self, masks: np.ndarray) -> np.ndarray:
        """Aerial images for a mask batch through the vectorised execution engine."""
        masks = np.asarray(masks)
        if masks.ndim == 2:
            masks = masks[None]
        return self.execution_engine().aerial_batch(masks)

    def execution_engine(self) -> "ExecutionEngine":
        """Batched :class:`~repro.engine.execution.ExecutionEngine` over the
        exported kernel bank — the production fast-lithography entry point
        (supports batching, chunking and whole-layout tiling).  Memoised
        alongside the exported kernels and rebuilt after retraining."""
        from ..engine.execution import ExecutionEngine

        if self._engine is None:
            self._engine = ExecutionEngine(self.export_kernels(),
                                           resist_threshold=self.optics.resist_threshold,
                                           tile_size_px=self.optics.tile_size_px)
        return self._engine

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
        self._exported_kernels = None
        self._engine = None
