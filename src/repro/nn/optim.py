"""Optimizers operating on (possibly complex-valued) parameters.

Because the gradient convention in :mod:`repro.nn.tensor` already yields the
steepest-descent direction in the underlying real space, complex parameters
are updated exactly like real ones.  Adam keeps its second moment as the
squared *magnitude* of the gradient so the effective step size is phase
invariant (this matches PyTorch's complex Adam behaviour).

:func:`fit_minibatches` is the one training loop: Nitho and the
image-to-image baselines differ only in what they hand it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

import numpy as np

from . import functional as F
from .tensor import Tensor


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, parameters: Iterable[Tensor]):
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-2,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity.get(index)
                if velocity is None:
                    velocity = np.zeros_like(param.data)
                velocity = self.momentum * velocity + grad
                self._velocity[index] = velocity
                grad = velocity
            param.data = param.data - self.lr * grad


class Adam(Optimizer):
    """Adam with complex-aware second moment (|grad|^2)."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m = self._m.get(index)
            v = self._v.get(index)
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros(param.data.shape, dtype=np.float64)
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * np.abs(grad) ** 2
            self._m[index] = m
            self._v[index] = v
            m_hat = m / (1 - self.beta1 ** t)
            v_hat = v / (1 - self.beta2 ** t)
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class StepLR:
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0

    def step(self) -> None:
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma

    @property
    def lr(self) -> float:
        return self.optimizer.lr


class CosineLR:
    """Cosine decay from the initial learning rate to ``min_lr`` over ``total_epochs``."""

    def __init__(self, optimizer: Optimizer, total_epochs: int, min_lr: float = 0.0):
        if total_epochs <= 0:
            raise ValueError("total_epochs must be positive")
        self.optimizer = optimizer
        self.total_epochs = total_epochs
        self.min_lr = min_lr
        self.base_lr = optimizer.lr
        self._epoch = 0

    def step(self) -> None:
        self._epoch = min(self._epoch + 1, self.total_epochs)
        progress = self._epoch / self.total_epochs
        self.optimizer.lr = self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (
            1 + np.cos(np.pi * progress))

    @property
    def lr(self) -> float:
        return self.optimizer.lr


def fit_minibatches(optimizer: Optimizer, predict: Callable[[np.ndarray], Tensor],
                    inputs: np.ndarray, targets: np.ndarray, epochs: int,
                    batch_size: int, seed: int, min_lr_fraction: float,
                    name: str, verbose: bool = False) -> List[float]:
    """The one minibatch loop: per epoch a seeded shuffle, one optimizer step
    per batch on the MSE of ``predict(inputs[batch])`` against
    ``targets[batch]``, a cosine learning-rate step down to
    ``min_lr_fraction`` of the optimizer's current rate, and the epoch's mean
    batch loss in the returned history."""
    if len(inputs) != len(targets):
        raise ValueError(f"got {len(inputs)} inputs but {len(targets)} targets")
    if len(inputs) == 0:
        raise ValueError("training set is empty")
    scheduler = CosineLR(optimizer, total_epochs=epochs,
                         min_lr=min_lr_fraction * optimizer.lr)
    rng = np.random.default_rng(seed)
    count = len(inputs)
    batch_size = min(batch_size, count)
    history: List[float] = []
    for epoch in range(epochs):
        order = rng.permutation(count)
        losses = []
        for start in range(0, count, batch_size):
            index = order[start:start + batch_size]
            loss = F.mse_loss(predict(inputs[index]), Tensor(targets[index]))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(float(loss.item()))
        history.append(float(np.mean(losses)))
        scheduler.step()
        if verbose:
            print(f"[{name}] epoch {epoch + 1:3d}/{epochs}  loss={history[-1]:.3e}")
    return history


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm does not exceed ``max_norm``."""
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float(np.sum(np.abs(p.grad) ** 2)) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total
