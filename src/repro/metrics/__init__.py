"""Evaluation metrics used throughout the paper's experiments."""

from .image import aerial_metrics, max_error, mse, psnr
from .model_size import model_size_mb, parameter_count
from .segmentation import mean_iou, mean_pixel_accuracy, resist_metrics

__all__ = [
    "mse", "psnr", "max_error", "aerial_metrics",
    "mean_iou", "mean_pixel_accuracy", "resist_metrics",
    "parameter_count", "model_size_mb",
]
