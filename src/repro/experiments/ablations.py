"""Additional ablations covering the design choices called out in DESIGN.md.

These go beyond the paper's own ablation section:

* SOCS truncation order — how many golden kernels are needed before the
  aerial image stops improving (justifies the ``r < 60`` choice),
* complex-valued vs. real-valued MLP head with identical budgets,
* RFF encoding bandwidth (sigma) sweep.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence

from ..analysis.reporting import render_series
from ..metrics import aerial_metrics
from ..optics.simulator import LithographySimulator
from .context import get_context


def run_socs_order_ablation(preset: str = "tiny", seed: int = 0,
                            orders: Sequence[int] = (1, 2, 4, 8, 16, 24),
                            tiles: int = 3) -> Dict[str, object]:
    """Aerial-image PSNR of golden SOCS banks truncated at each
    ``max_socs_order`` vs. the preset's own bank.

    Each order is its own bank: a packed bank's rows are kernel pairs, so
    slicing one (``ExecutionEngine.truncate``) would not cut at ``order``.
    """
    context = get_context(preset, seed)
    dataset = context.dataset("B1")
    masks = dataset.test_masks[:max(1, tiles)]

    config = context.config.optics_config()
    full_bank = LithographySimulator(config).engine
    reference = full_bank.aerial_batch(masks)

    orders = list(orders)
    series = []
    for order in orders:
        truncated = LithographySimulator(
            dataclasses.replace(config, max_socs_order=order)).engine
        prediction = truncated.aerial_batch(masks)
        series.append(aerial_metrics(reference, prediction)["psnr"])

    return {
        "orders": orders,
        "psnr_vs_full": series,
        "full_order": config.max_socs_order,
        "table": render_series({"order": orders, "psnr": series}, x_label="point"),
    }


def run_real_vs_complex_ablation(preset: str = "tiny", seed: int = 0,
                                 dataset_name: str = "B1",
                                 max_eval_tiles: int = 0) -> Dict[str, object]:
    """Train Nitho with a complex-valued and a real-valued MLP head and compare PSNR."""
    context = get_context(preset, seed)
    dataset = context.dataset(dataset_name)
    test_masks = dataset.test_masks
    test_aerials = dataset.test_aerials
    if max_eval_tiles and len(test_masks) > max_eval_tiles:
        test_masks = test_masks[:max_eval_tiles]
        test_aerials = test_aerials[:max_eval_tiles]

    results = {}
    for label, real_valued in (("complex CMLP", False), ("real MLP", True)):
        model = context.make_model("Nitho", real_valued_mlp=real_valued)
        model.fit(dataset.train_masks, dataset.train_aerials)
        predictions = model.predict_batch(test_masks)
        results[label] = aerial_metrics(test_aerials, predictions)
    return {"results": results}


def run_rff_sigma_ablation(preset: str = "tiny", seed: int = 0, dataset_name: str = "B1",
                           sigmas: Sequence[float] = (0.5, 1.5, 6.0),
                           max_eval_tiles: int = 0) -> Dict[str, object]:
    """PSNR as a function of the random-Fourier-feature bandwidth sigma."""
    context = get_context(preset, seed)
    dataset = context.dataset(dataset_name)
    test_masks = dataset.test_masks
    test_aerials = dataset.test_aerials
    if max_eval_tiles and len(test_masks) > max_eval_tiles:
        test_masks = test_masks[:max_eval_tiles]
        test_aerials = test_aerials[:max_eval_tiles]

    series = []
    for sigma in sigmas:
        model = context.make_model("Nitho", encoding_kwargs={"sigma": float(sigma)})
        model.fit(dataset.train_masks, dataset.train_aerials)
        predictions = model.predict_batch(test_masks)
        series.append(aerial_metrics(test_aerials, predictions)["psnr"])
    return {
        "sigmas": list(sigmas),
        "psnr": series,
        "table": render_series({"sigma": list(sigmas), "psnr": series}, x_label="point"),
    }
