"""Fig. 5 — runtime comparison: throughput (µm²/s) of each lithography engine.

The engines timed are the trained TEMPO / DOINN / Nitho models (per-tile
prediction at full tile resolution) and two reference simulators: the SOCS
golden engine ("Calibre-like") and the direct Abbe source-point summation
("Ref", the rigorous path).  The paper's qualitative claims checked here:
the learned models are orders of magnitude faster than the rigorous
simulator, with Nitho achieving the best accuracy/throughput combination
because no network inference is needed after kernel export.
"""

from __future__ import annotations

from typing import Dict


from ..analysis.reporting import render_bar_chart
from ..analysis.throughput import compare_throughput, speedup
from ..optics.simulator import calibre_like_engine
from .context import MODEL_NAMES, get_context


def run_fig5(preset: str = "tiny", seed: int = 0, dataset_name: str = "B1",
             tiles: int = 3, repeats: int = 1) -> Dict[str, object]:
    """Measure throughput of every engine on the same mask tiles."""
    context = get_context(preset, seed)
    dataset = context.dataset(dataset_name)
    masks = list(dataset.test_masks[:max(1, tiles)])
    pixel_size_nm = dataset.pixel_size_nm
    tile_size = dataset.tile_size_px

    engines = {}
    batched_engines = {}
    for model_name in MODEL_NAMES:
        model = context.trained_model(model_name, dataset_name)
        if model_name == "Nitho":
            # Fast-lithography path: exported kernel bank, no network
            # inference — the execution engine the product ships, timed per
            # tile and as one batch.
            bank = model.execution_engine()
            engines["Nitho"] = bank.aerial
            batched_engines["Nitho (batched)"] = bank.aerial_batch
        else:
            engines[model_name] = model.predict_aerial

    golden = calibre_like_engine(tile_size_px=tile_size, pixel_size_nm=pixel_size_nm)
    golden.kernels  # precompute outside the timed region
    engines["Calibre-like (SOCS)"] = golden.aerial
    engines["Ref (rigorous Abbe)"] = golden.aerial_rigorous

    results = compare_throughput(engines, masks, pixel_size_nm, repeats=repeats,
                                 batched_engines=batched_engines)
    throughput = {name: result.um2_per_second for name, result in results.items()}
    return {
        "results": results,
        "um2_per_second": throughput,
        "nitho_vs_rigorous_speedup": speedup(results, "Nitho", "Ref (rigorous Abbe)"),
        "chart": render_bar_chart(throughput, unit=" um^2/s"),
    }
