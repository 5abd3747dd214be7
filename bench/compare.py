#!/usr/bin/env python3
"""Compare two benchmark results: ``python3 bench/compare.py A B``.

``A`` is the parent, ``B`` the change.  Each is a file written by
``bench/run.py --out``, or a directory of such files (one per run — the way
to compare ten runs of each side).  Every end-to-end metric is judged per
workload, one row each, by the direction and bound ``BENCHMARK.json`` fixes:

``ok``          B's median is no worse than A's by more than the bound.
``regressed``   it is worse by more than the bound, and the runs resolve it.
``unresolved``  the spread between a side's own runs (quartile distance over
                median) is wider than the bound and the two sides' quartile
                ranges overlap — the data cannot tell, so it does not say
                "unchanged".

With one run per side the spread of ``op_wall_norm_s_p25`` / ``throughput_um2_s``
is taken from that run's own per-op samples.  The exit code is non-zero on
any ``regressed`` row or a higher share of failed operations.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer counts that must repeat exactly between runs of one commit.
EXACT_COUNTS = ("backend.fft_calls", "engine.tiles_imaged",
                "engine.tile_cache_hit_rate", "layout.windows",
                "repo.src_loc", "repo.api_names")


def load_runs(path: str) -> List[dict]:
    paths = sorted(os.path.join(path, name) for name in os.listdir(path)
                   if name.endswith(".json")) if os.path.isdir(path) \
        else [path]
    runs = []
    for run_path in paths:
        with open(run_path, "r", encoding="utf-8") as handle:
            runs.append(json.load(handle))
    if not runs:
        raise SystemExit(f"error: no result files in {path}")
    return runs


def quartiles(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4)
    return first, third


def side_values(runs: Sequence[dict], workload: str, metric: str,
                ) -> Tuple[List[float], Optional[Tuple[float, float]]]:
    """One value per run, plus the quartile range that stands for the
    side's spread (between runs, or within the single run's op samples)."""
    values = [run["workloads"][workload]["end_to_end"][metric]
              for run in runs if workload in run["workloads"]]
    spread = quartiles(values)
    if spread is None and values and metric in ("op_wall_norm_s_p25",
                                                "throughput_um2_s"):
        result = runs[0]["workloads"][workload]
        walls = result["samples"]["op_wall_s"]
        spread = quartiles(walls)
        if spread is not None and metric == "throughput_um2_s":
            # Same spread seen through area / wall: the range inverts.
            scale = values[0] * result["end_to_end"]["op_wall_norm_s_p25"]
            spread = (scale / spread[1], scale / spread[0])
    return values, spread


def verdict(a_values, a_range, b_values, b_range, better: str,
            bound: float) -> Tuple[str, float]:
    """``(ok | regressed | unresolved, relative worsening of B)``."""
    a_median = statistics.median(a_values)
    b_median = statistics.median(b_values)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b_median - a_median) / abs(a_median)
    ranges = [r for r in (a_range, b_range) if r is not None]
    wide = any((high - low) / abs(statistics.median((low, high))) > bound
               for low, high in ranges)
    overlap = len(ranges) == 2 and \
        a_range[0] <= b_range[1] and b_range[0] <= a_range[1]
    if wide and overlap:
        return "unresolved", worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def failed_share(runs: Sequence[dict], workload: str) -> float:
    attempted = failed = 0
    for run in runs:
        result = run["workloads"].get(workload)
        if result:
            attempted += result["attempted"]
            failed += result["failed"]
    return failed / attempted if attempted else 0.0


def compare(a_runs: Sequence[dict], b_runs: Sequence[dict], spec: dict,
            out=sys.stdout) -> int:
    """Print one row per (metric, workload); returns the exit code."""
    bad = 0
    for side, runs in (("A", a_runs), ("B", b_runs)):
        if any(run.get("smoke") for run in runs):
            print(f"note: side {side} holds --smoke runs; they exercise the "
                  f"harness and measure nothing", file=out)
    # Every workload both sides ran, gated by `BENCHMARK.json` or not.
    workloads = [name for name in dict.fromkeys(
        name for run in a_runs for name in run["workloads"])
        if any(name in run["workloads"] for run in b_runs)]
    for entry in spec["end_to_end"]:
        for workload in workloads:
            a_values, a_range = side_values(a_runs, workload, entry["name"])
            b_values, b_range = side_values(b_runs, workload, entry["name"])
            state, worsening = verdict(a_values, a_range, b_values, b_range,
                                       entry["better"], entry["bound"])
            bad += state == "regressed"
            print(f"{state:<10} {entry['name']:<20} {workload:<18} "
                  f"A {statistics.median(a_values):>12.6g}  "
                  f"B {statistics.median(b_values):>12.6g} {entry['unit']:<9} "
                  f"worse by {worsening:+.1%} (bound {entry['bound']:.0%})",
                  file=out)
    for workload in workloads:
        a_share = failed_share(a_runs, workload)
        b_share = failed_share(b_runs, workload)
        state = "regressed" if b_share > a_share else "ok"
        bad += state == "regressed"
        print(f"{state:<10} {'failed_ops_share':<20} {workload:<18} "
              f"A {a_share:>12.6g}  B {b_share:>12.6g} ratio", file=out)
        for name in EXACT_COUNTS:
            counts = [{run["workloads"][workload]["per_layer"].get(name)
                       for run in runs if workload in run["workloads"]}
                      for runs in (a_runs, b_runs)]
            if len(counts[0] | counts[1]) > 1:
                print(f"{'differs':<10} {name:<20} {workload:<18} "
                      f"A {sorted(map(str, counts[0]))}  "
                      f"B {sorted(map(str, counts[1]))} (a count that should "
                      f"repeat exactly)", file=out)
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare.py A.json|A_DIR B.json|B_DIR", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return compare(load_runs(argv[0]), load_runs(argv[1]), spec)


if __name__ == "__main__":
    raise SystemExit(main())
