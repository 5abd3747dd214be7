"""Tests for optimizers and LR schedules (repro.nn.optim)."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.optim import fit_minibatches
from repro.nn.tensor import Tensor


def quadratic_loss(param: Tensor, target: np.ndarray) -> Tensor:
    return F.sum(F.square(F.sub(param, Tensor(target))))


def complex_quadratic_loss(param: Tensor, target: np.ndarray) -> Tensor:
    return F.sum(F.abs2(F.sub(param, Tensor(target))))


class TestAdam:
    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_skips_parameters_without_grad(self):
        param = Tensor(np.ones(2), requires_grad=True)
        optimizer = nn.Adam([param], lr=0.1)
        optimizer.step()  # no gradient accumulated yet
        np.testing.assert_allclose(param.data, 1.0)

    def test_converges_on_quadratic(self):
        target = np.array([2.0, -1.0])
        param = Tensor(np.zeros(2), requires_grad=True)
        optimizer = nn.Adam([param], lr=0.1)
        for _ in range(300):
            loss = quadratic_loss(param, target)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_converges_on_complex_quadratic(self):
        target = np.array([1 + 2j, -3 - 1j])
        param = Tensor(np.zeros(2, dtype=complex), requires_grad=True)
        optimizer = nn.Adam([param], lr=0.1)
        for _ in range(400):
            loss = complex_quadratic_loss(param, target)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_second_moment_stays_real_for_complex_params(self):
        param = Tensor(np.zeros(2, dtype=complex), requires_grad=True)
        optimizer = nn.Adam([param], lr=0.1)
        loss = complex_quadratic_loss(param, np.array([1 + 1j, 2 - 2j]))
        loss.backward()
        optimizer.step()
        assert not np.iscomplexobj(optimizer._v[0])

    def test_weight_decay(self):
        param = Tensor(np.full(1, 10.0), requires_grad=True)
        optimizer = nn.Adam([param], lr=0.05, weight_decay=1.0)
        for _ in range(200):
            loss = quadratic_loss(param, np.array([10.0]))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert param.data[0] < 10.0


class TestSchedulers:
    def test_cosine_reaches_min_lr(self):
        param = Tensor(np.zeros(1), requires_grad=True)
        optimizer = nn.Adam([param], lr=1.0)
        scheduler = nn.CosineLR(optimizer, total_epochs=10, min_lr=0.1)
        for _ in range(10):
            scheduler.step()
        assert optimizer.lr == pytest.approx(0.1)

    def test_cosine_is_monotone_decreasing(self):
        param = Tensor(np.zeros(1), requires_grad=True)
        optimizer = nn.Adam([param], lr=1.0)
        scheduler = nn.CosineLR(optimizer, total_epochs=20)
        values = []
        for _ in range(20):
            scheduler.step()
            values.append(optimizer.lr)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_cosine_invalid_epochs(self):
        param = Tensor(np.zeros(1), requires_grad=True)
        with pytest.raises(ValueError):
            nn.CosineLR(nn.Adam([param], lr=1.0), total_epochs=0)


def linear_problem(count=12):
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(count, 3))
    targets = inputs @ np.array([1.0, -2.0, 0.5])
    return inputs, targets


class TestFitMinibatches:
    def fit(self, seed=0, epochs=30):
        inputs, targets = linear_problem()
        weight = Tensor(np.zeros(3), requires_grad=True)
        optimizer = nn.Adam([weight], lr=0.1)
        history = fit_minibatches(
            optimizer, lambda batch: F.matmul(Tensor(batch), weight),
            inputs, targets, epochs=epochs, batch_size=5, seed=seed,
            min_lr_fraction=0.1, name="linear")
        return history, weight, optimizer

    def test_one_mean_loss_per_epoch_and_it_falls(self):
        history, weight, _ = self.fit()
        assert len(history) == 30
        assert history[-1] < 0.05 * history[0]
        np.testing.assert_allclose(weight.data, [1.0, -2.0, 0.5], atol=0.1)

    def test_same_seed_same_history(self):
        assert self.fit(seed=3)[0] == self.fit(seed=3)[0]

    def test_cosine_schedule_ends_at_min_lr_fraction(self):
        _, _, optimizer = self.fit(epochs=4)
        assert optimizer.lr == pytest.approx(0.01)

    def test_batch_larger_than_set_is_one_full_batch(self):
        inputs, targets = linear_problem(count=4)
        weight = Tensor(np.zeros(3), requires_grad=True)
        batches = []

        def predict(batch):
            batches.append(len(batch))
            return F.matmul(Tensor(batch), weight)

        fit_minibatches(nn.Adam([weight], lr=0.1), predict, inputs, targets,
                        epochs=2, batch_size=64, seed=0, min_lr_fraction=0.0,
                        name="linear")
        assert batches == [4, 4]

    @pytest.mark.parametrize("inputs, targets, message", [
        (np.zeros((3, 2)), np.zeros(2), "3 inputs but 2 targets"),
        (np.zeros((0, 2)), np.zeros(0), "training set is empty"),
    ])
    def test_unusable_training_set_raises(self, inputs, targets, message):
        weight = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ValueError, match=message):
            fit_minibatches(nn.Adam([weight], lr=0.1),
                            lambda batch: F.matmul(Tensor(batch), weight),
                            inputs, targets, epochs=1, batch_size=2,
                            seed=0, min_lr_fraction=0.1, name="empty")
