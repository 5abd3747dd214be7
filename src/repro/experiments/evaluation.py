"""Common evaluation helpers for the experiment drivers."""

from __future__ import annotations

from typing import Dict

from ..masks.datasets import LithoDataset
from ..metrics import aerial_metrics, resist_metrics


def evaluate_on_dataset(model, dataset: LithoDataset, max_tiles: int = 0) -> Dict[str, float]:
    """Aerial and resist metrics of ``model`` on the test split of ``dataset``.

    Parameters
    ----------
    max_tiles:
        Evaluate at most this many test tiles (0 = all); the paper evaluates
        every test tile but the large presets benefit from a cap.
    """
    masks = dataset.test_masks
    aerials = dataset.test_aerials
    resists = dataset.test_resists
    if max_tiles and len(masks) > max_tiles:
        masks, aerials, resists = masks[:max_tiles], aerials[:max_tiles], resists[:max_tiles]
    if len(masks) == 0:
        raise ValueError(f"dataset {dataset.name} has no test tiles")

    # One batched forward; the resist is developed from those same aerials
    # (predict_resist per tile would image every tile a second time).
    predicted_aerials = model.predict_batch(masks)
    predicted_resists = model.resist_model.develop(predicted_aerials)

    metrics = {}
    metrics.update(aerial_metrics(aerials, predicted_aerials))
    metrics.update(resist_metrics(resists, predicted_resists))
    return metrics
