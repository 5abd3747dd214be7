"""Tests for the evaluation metrics (repro.metrics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import nn
from repro.metrics import (
    aerial_metrics,
    max_error,
    mean_iou,
    mean_pixel_accuracy,
    model_size_mb,
    mse,
    parameter_count,
    psnr,
    resist_metrics,
)

RNG = np.random.default_rng(8)


class TestImageMetrics:
    def test_mse_zero_for_identical(self):
        image = RNG.random((8, 8))
        assert mse(image, image) == 0.0

    def test_mse_matches_definition(self):
        target = np.zeros((4, 4))
        prediction = np.full((4, 4), 0.5)
        assert mse(target, prediction) == pytest.approx(0.25)

    def test_max_error(self):
        target = np.zeros((4, 4))
        prediction = np.zeros((4, 4))
        prediction[1, 2] = -0.7
        assert max_error(target, prediction) == pytest.approx(0.7)

    def test_psnr_uses_target_peak(self):
        target = np.full((4, 4), 0.5)
        prediction = target + 0.05
        expected = 10 * np.log10(0.5 ** 2 / 0.05 ** 2)
        assert psnr(target, prediction) == pytest.approx(expected)

    def test_psnr_perfect_prediction_is_infinite(self):
        image = RNG.random((4, 4))
        assert psnr(image, image) == float("inf")

    def test_psnr_zero_target_raises(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((4, 4)), np.ones((4, 4)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4)), np.zeros((5, 5)))

    def test_aerial_metrics_batched_average(self):
        target = np.stack([np.full((4, 4), 0.5), np.full((4, 4), 0.5)])
        prediction = target.copy()
        prediction[0] += 0.1
        result = aerial_metrics(target, prediction)
        assert result["mse"] == pytest.approx(0.005)
        assert result["me"] == pytest.approx(0.05)

    @given(arrays(np.float64, (6, 6), elements=st.floats(0.01, 1.0)),
           arrays(np.float64, (6, 6), elements=st.floats(0.0, 1.0)))
    @settings(max_examples=30, deadline=None)
    def test_psnr_decreases_as_error_grows(self, target, prediction):
        close = 0.5 * target + 0.5 * prediction
        assert psnr(target, close) >= psnr(target, prediction) - 1e-9

    @given(arrays(np.float64, (5, 5), elements=st.floats(-1, 1)),
           arrays(np.float64, (5, 5), elements=st.floats(-1, 1)))
    @settings(max_examples=30, deadline=None)
    def test_me_bounds_mse(self, a, b):
        assert mse(a, b) <= max_error(a, b) ** 2 + 1e-12


class TestSegmentationMetrics:
    def test_mean_iou_perfect_is_100(self):
        pattern = RNG.random((8, 8)) > 0.5
        assert mean_iou(pattern, pattern) == pytest.approx(100.0)

    def test_mean_iou_counts_both_classes(self):
        """Predicting everything as printed is penalised through the background class."""
        target = np.zeros((10, 10)); target[:5] = 1
        prediction = np.ones((10, 10))
        assert mean_iou(target, prediction) == pytest.approx(25.0)

    def test_mean_pixel_accuracy_constant_prediction(self):
        target = np.zeros((10, 10)); target[:5] = 1
        prediction = np.ones((10, 10))
        assert mean_pixel_accuracy(target, prediction) == pytest.approx(50.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mean_iou(np.zeros((4, 4)), np.zeros((3, 3)))

    def test_mean_iou_complementary_masks_score_zero(self):
        target = np.zeros((6, 6)); target[:, :3] = 1
        assert mean_iou(target, 1 - target) == pytest.approx(0.0)

    def test_class_absent_from_both_counts_as_perfect(self):
        """An empty union (no printed pixel anywhere) scores that class 1."""
        blank = np.zeros((5, 5))
        assert mean_iou(blank, blank) == pytest.approx(100.0)
        assert mean_pixel_accuracy(blank, blank) == pytest.approx(100.0)
        assert mean_pixel_accuracy(blank, np.ones((5, 5))) == pytest.approx(50.0)

    def test_printed_means_above_one_half(self):
        at_threshold = np.full((4, 4), 0.5)
        assert mean_iou(at_threshold, np.zeros((4, 4))) == pytest.approx(100.0)
        assert mean_iou(at_threshold + 1e-9, np.zeros((4, 4))) == pytest.approx(0.0)

    def test_resist_metrics_single_image_and_batch_mismatch(self):
        target = np.zeros((6, 6)); target[:2] = 1
        prediction = np.zeros((6, 6)); prediction[:3] = 1
        result = resist_metrics(target, prediction)
        assert result["miou"] == pytest.approx(mean_iou(target, prediction))
        assert result["mpa"] == pytest.approx(
            mean_pixel_accuracy(target, prediction))
        with pytest.raises(ValueError):
            resist_metrics(np.zeros((2, 4, 4)), np.zeros((3, 4, 4)))

    def test_resist_metrics_batch(self):
        target = (RNG.random((3, 8, 8)) > 0.5).astype(float)
        result = resist_metrics(target, target)
        assert result["mpa"] == pytest.approx(100.0)
        assert result["miou"] == pytest.approx(100.0)

    @given(arrays(np.int8, (8, 8), elements=st.integers(0, 1)),
           arrays(np.int8, (8, 8), elements=st.integers(0, 1)))
    @settings(max_examples=40, deadline=None)
    def test_bounds_and_symmetry(self, a, b):
        value = mean_iou(a, b)
        assert 0.0 <= value <= 100.0
        assert value == pytest.approx(mean_iou(b, a))
        accuracy = mean_pixel_accuracy(a, b)
        assert 0.0 <= accuracy <= 100.0

    @given(arrays(np.int8, (8, 8), elements=st.integers(0, 1)))
    @settings(max_examples=25, deadline=None)
    def test_identity_gives_perfect_scores(self, pattern):
        assert mean_iou(pattern, pattern) == pytest.approx(100.0)
        assert mean_pixel_accuracy(pattern, pattern) == pytest.approx(100.0)


class TestModelSize:
    def test_parameter_count_module(self):
        assert parameter_count(nn.Linear(4, 3)) == 4 * 3 + 3

    def test_parameter_count_complex_module(self):
        assert parameter_count(nn.CLinear(4, 3, bias=False)) == 24

    def test_parameter_count_duck_typed(self):
        class Dummy:
            def num_parameters(self):
                return 7

        assert parameter_count(Dummy()) == 7

    def test_parameter_count_rejects_unknown(self):
        with pytest.raises(TypeError):
            parameter_count(object())

    def test_model_size_mb(self):
        model = nn.Linear(256, 1024, bias=False)
        assert model_size_mb(model) == pytest.approx(256 * 1024 * 4 / 2 ** 20)
        with pytest.raises(ValueError):
            model_size_mb(model, bytes_per_scalar=0)
