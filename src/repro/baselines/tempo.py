"""TEMPO-style baseline: conditional GAN generator for mask-to-aerial mapping.

TEMPO (Ye et al., ISPD 2020) models the mask-to-aerial process with a cGAN
whose generator is a convolutional encoder/decoder.  The substitute here keeps
that structure — a strided-conv encoder, a bottleneck, a nearest-neighbour
upsampling decoder, and an optional PatchGAN-style discriminator for
adversarial fine-tuning — at a resolution that trains in NumPy.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor
from .common import ImageToImageModel


class TempoGenerator(nn.Module):
    """Encoder/decoder generator (the cGAN generator of TEMPO)."""

    def __init__(self, base_channels: int = 12, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        c = base_channels
        # Encoder: two 2x downsampling stages.
        self.enc1 = nn.Conv2d(1, c, kernel_size=3, stride=1, padding=1, rng=rng)
        self.enc2 = nn.Conv2d(c, 2 * c, kernel_size=3, stride=2, padding=1, rng=rng)
        self.enc3 = nn.Conv2d(2 * c, 4 * c, kernel_size=3, stride=2, padding=1, rng=rng)
        # Bottleneck.
        self.bottleneck = nn.Conv2d(4 * c, 4 * c, kernel_size=3, stride=1, padding=1, rng=rng)
        # Decoder: two 2x upsampling stages.
        self.dec1 = nn.Conv2d(4 * c, 2 * c, kernel_size=3, stride=1, padding=1, rng=rng)
        self.dec2 = nn.Conv2d(2 * c, c, kernel_size=3, stride=1, padding=1, rng=rng)
        self.head = nn.Conv2d(c, 1, kernel_size=3, stride=1, padding=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        h = F.leaky_relu(self.enc1(x))
        h = F.leaky_relu(self.enc2(h))
        h = F.leaky_relu(self.enc3(h))
        h = F.leaky_relu(self.bottleneck(h))
        h = nn.upsample2x(h)
        h = F.leaky_relu(self.dec1(h))
        h = nn.upsample2x(h)
        h = F.leaky_relu(self.dec2(h))
        # Linear intensity head: aerial images live in [0, ~1] but a sigmoid
        # saturates early in training and collapses to the background value.
        return self.head(h)


class TempoDiscriminator(nn.Module):
    """PatchGAN-style discriminator on (mask, aerial) pairs."""

    def __init__(self, base_channels: int = 8, seed: int = 1):
        super().__init__()
        rng = np.random.default_rng(seed)
        c = base_channels
        self.conv1 = nn.Conv2d(2, c, kernel_size=3, stride=2, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(c, 2 * c, kernel_size=3, stride=2, padding=1, rng=rng)
        self.head = nn.Conv2d(2 * c, 1, kernel_size=3, stride=1, padding=1, rng=rng)

    def forward(self, mask: Tensor, aerial: Tensor) -> Tensor:
        pair = F.concatenate([mask, aerial], axis=1)
        h = F.leaky_relu(self.conv1(pair))
        h = F.leaky_relu(self.conv2(h))
        return self.head(h)


class TempoModel(ImageToImageModel):
    """TEMPO substitute with the common lithography-model interface.

    Adversarial training is off by default (the L2-trained generator already
    exhibits the relevant behaviour: good in-distribution fit, poor OOD
    generalisation); enable it with ``adversarial=True`` for a cGAN run.
    """

    name = "TEMPO"

    def __init__(self, work_resolution: int = 32, base_channels: int = 12,
                 learning_rate: float = 2e-3, epochs: int = 40, batch_size: int = 4,
                 resist_threshold: float = 0.225, adversarial: bool = False,
                 adversarial_weight: float = 0.01, seed: int = 0):
        generator = TempoGenerator(base_channels=base_channels, seed=seed)
        super().__init__(generator, work_resolution=work_resolution,
                         learning_rate=learning_rate, epochs=epochs,
                         batch_size=batch_size, resist_threshold=resist_threshold,
                         seed=seed)
        self.adversarial = adversarial
        self.adversarial_weight = adversarial_weight
        self.discriminator = TempoDiscriminator(seed=seed + 1) if adversarial else None

    def fit(self, masks: np.ndarray, aerials: np.ndarray,
            epochs: Optional[int] = None, verbose: bool = False) -> List[float]:
        if not self.adversarial:
            return super().fit(masks, aerials, epochs=epochs, verbose=verbose)
        return self._fit_adversarial(masks, aerials, epochs=epochs, verbose=verbose)

    def _fit_adversarial(self, masks: np.ndarray, aerials: np.ndarray,
                         epochs: Optional[int] = None, verbose: bool = False) -> List[float]:
        """cGAN training: alternate discriminator and generator (L2 + adversarial) steps."""
        masks = np.asarray(masks, dtype=float)
        aerials = np.asarray(aerials, dtype=float)
        if masks.ndim == 2:
            masks = masks[None]
        if aerials.ndim == 2:
            aerials = aerials[None]

        inputs = self._to_work(masks)[:, None, :, :]
        targets = self._to_work(aerials)[:, None, :, :]
        epochs = epochs or self.epochs
        gen_optimizer = nn.Adam(self.network.parameters(), lr=self.learning_rate)
        dis_optimizer = nn.Adam(self.discriminator.parameters(), lr=self.learning_rate)
        rng = np.random.default_rng(self.seed)
        count = len(inputs)
        batch_size = min(self.batch_size, count)

        history: List[float] = []
        for epoch in range(epochs):
            order = rng.permutation(count)
            epoch_losses = []
            for start in range(0, count, batch_size):
                index = order[start:start + batch_size]
                mask_batch = Tensor(inputs[index])
                target_batch = Tensor(targets[index])

                # Discriminator step: real pairs -> 1, generated pairs -> 0.
                fake = self.network(mask_batch)
                real_logits = self.discriminator(mask_batch, target_batch)
                fake_logits = self.discriminator(mask_batch, Tensor(fake.data))
                dis_loss = F.add(
                    F.bce_with_logits_loss(real_logits, Tensor(np.ones_like(real_logits.data))),
                    F.bce_with_logits_loss(fake_logits, Tensor(np.zeros_like(fake_logits.data))))
                dis_optimizer.zero_grad()
                dis_loss.backward()
                dis_optimizer.step()

                # Generator step: L2 reconstruction + fool-the-discriminator term.
                fake = self.network(mask_batch)
                adv_logits = self.discriminator(mask_batch, fake)
                recon = F.mse_loss(fake, target_batch)
                adversarial = F.bce_with_logits_loss(
                    adv_logits, Tensor(np.ones_like(adv_logits.data)))
                gen_loss = F.add(recon, F.mul(adversarial, self.adversarial_weight))
                gen_optimizer.zero_grad()
                gen_loss.backward()
                gen_optimizer.step()
                epoch_losses.append(float(recon.item()))
            history.append(float(np.mean(epoch_losses)))
            if verbose:
                print(f"[TEMPO-cGAN] epoch {epoch + 1:3d}/{epochs}  l2={history[-1]:.3e}")
        self.history.extend(history)
        return history
