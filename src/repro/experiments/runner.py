"""Run every experiment of the paper and print the resulting tables.

``python -m repro.cli experiments --preset small`` regenerates the whole
evaluation section; ``benchmarks/results/`` holds the tables the benchmark
harness last wrote.
"""

from __future__ import annotations

from typing import Dict, Optional

from .ablations import run_real_vs_complex_ablation, run_rff_sigma_ablation, run_socs_order_ablation
from .fig2 import run_fig2a, run_fig2b
from .fig4 import run_fig4
from .fig5 import run_fig5
from .fig6 import run_fig6a, run_fig6b
from .table1 import run_table1
from .table2 import run_table2
from .table3 import run_table3
from .table4 import run_table4
from .table5 import run_table5


def run_all(preset: str = "tiny", seed: int = 0, include_ablations: bool = True,
            verbose: bool = True) -> Dict[str, object]:
    """Run every table and figure; returns a dict keyed by experiment id."""
    results: Dict[str, object] = {}

    def record(key: str, value, printable: Optional[str] = None) -> None:
        results[key] = value
        if verbose:
            print(f"\n===== {key} =====")
            if printable is not None:
                print(printable)

    table1 = run_table1(preset, seed)
    record("table1", table1, table1["table"])

    table2 = run_table2(preset, seed)
    record("table2", table2, table2["table"])

    table3 = run_table3(preset, seed)
    record("table3", table3, table3["table"])

    table4 = run_table4(preset, seed)
    record("table4", table4, table4["table"])

    table5 = run_table5(preset, seed)
    record("table5", table5, table5["table"])

    fig2a = run_fig2a(preset, seed)
    record("fig2a", fig2a, f"cluster separation = {fig2a['separation']:.2f}")

    fig2b = run_fig2b(preset, seed)
    record("fig2b", fig2b, fig2b["ascii"])

    fig4 = run_fig4(preset, seed)
    record("fig4", fig4, next(iter(fig4["panels"].values()))["ascii"])

    fig5 = run_fig5(preset, seed)
    record("fig5", fig5, fig5["chart"])

    fig6a = run_fig6a(preset, seed)
    record("fig6a", fig6a, fig6a["table"])

    fig6b = run_fig6b(preset, seed)
    record("fig6b", fig6b, fig6b["table"])

    if include_ablations:
        socs = run_socs_order_ablation(preset, seed)
        record("ablation_socs_order", socs, socs["table"])

        real_complex = run_real_vs_complex_ablation(preset, seed)
        record("ablation_real_vs_complex", real_complex,
               "\n".join(f"{k}: PSNR={v['psnr']:.2f} dB" for k, v in real_complex["results"].items()))

        sigma = run_rff_sigma_ablation(preset, seed)
        record("ablation_rff_sigma", sigma, sigma["table"])

    return results
