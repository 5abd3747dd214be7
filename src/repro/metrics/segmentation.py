"""Resist-image classification metrics: mIOU and mPA (Eq. (7)).

The resist stage is a two-class segmentation problem (printed / not printed);
following the paper both classes contribute to the mean, and each test image
contributes equally.
"""

from __future__ import annotations

from typing import Dict

import numpy as np


def _as_binary(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image)
    return (image > 0.5).astype(bool)


def mean_iou(target: np.ndarray, prediction: np.ndarray) -> float:
    """Class-averaged IOU over the printed and background classes (Eq. (7), in %)."""
    target, prediction = _as_binary(target), _as_binary(prediction)
    if target.shape != prediction.shape:
        raise ValueError("shape mismatch between target and prediction")
    scores = []
    for positive in (True, False):
        t = target if positive else ~target
        p = prediction if positive else ~prediction
        union = np.logical_or(t, p).sum()
        scores.append(1.0 if union == 0 else np.logical_and(t, p).sum() / union)
    return float(100.0 * np.mean(scores))


def mean_pixel_accuracy(target: np.ndarray, prediction: np.ndarray) -> float:
    """Class-averaged pixel accuracy (Eq. (7), in %)."""
    target, prediction = _as_binary(target), _as_binary(prediction)
    if target.shape != prediction.shape:
        raise ValueError("shape mismatch between target and prediction")
    scores = []
    for positive in (True, False):
        t = target if positive else ~target
        p = prediction if positive else ~prediction
        total = t.sum()
        scores.append(1.0 if total == 0 else np.logical_and(t, p).sum() / total)
    return float(100.0 * np.mean(scores))


def resist_metrics(target: np.ndarray, prediction: np.ndarray) -> Dict[str, float]:
    """mPA and mIOU averaged over a batch of resist images (percentages)."""
    target = np.asarray(target)
    prediction = np.asarray(prediction)
    if target.ndim == 2:
        target, prediction = target[None], prediction[None]
    if target.shape != prediction.shape:
        raise ValueError("shape mismatch between target and prediction batches")
    mpa = [mean_pixel_accuracy(t, p) for t, p in zip(target, prediction)]
    miou = [mean_iou(t, p) for t, p in zip(target, prediction)]
    return {"mpa": float(np.mean(mpa)), "miou": float(np.mean(miou))}
