#!/usr/bin/env python
"""Perf-regression gate over the ``benchmarks/results/*.json`` trajectory.

Every benchmark run writes machine-readable JSON records next to its text
tables; the committed copies are the repo's perf baseline.  This checker
compares a freshly regenerated results directory against that baseline and
**fails (exit 1) on a >25 % regression** of any gated metric, so CI stops a
perf regression instead of merely archiving it.

What is gated
-------------
CI runners and dev machines differ wildly in absolute speed, so by default
only **self-normalised** metrics are gated — ratios measured against a
baseline *within the same run*, which are hardware-stable:

* any key named ``speedup`` or ending in ``_speedup``
  (e.g. the backend-matrix per-combo speedups vs the literal seed path),
* ``peak_memory_ratio`` (the streaming benchmark's in-memory / streaming
  peak-RSS ratio) — gated at **twice** the regression tolerance (capped at
  50 %): the denominator is a small RSS delta, so allocator/arena
  differences between machines move it more than wall-clock ratios; the
  benchmark itself still asserts the absolute 4x floor,
* ``hit_rate`` / ``warm_hit_rate`` (the tile-cache dedup benchmark) —
  deterministic fractions of the benchmark layout's repeated tiles, so any
  drop means the dedup itself got worse, not the hardware,
* ``warm_share`` (the tile-cache dedup benchmark) — the all-hit run's
  wall-clock over the uncached run's, **lower** is better: it grows when
  serving a cached tile starts copying or hashing more than it has to.

Absolute metrics (``seconds``, ``*_seconds``, ``seconds_per_tile``,
``um2_per_second``, ``tiles_per_second``) are *reported* for every file but
gated only with ``--absolute`` — useful on a dedicated perf runner where the
hardware IS comparable across runs.  The full comparison report is written
with ``--report`` and uploaded as a CI artifact either way.

Usage
-----
::

    # CI: snapshot the committed baselines before the bench run, gate after
    cp -r benchmarks/results /tmp/bench-baseline
    pytest benchmarks -m bench --benchmark-disable
    python benchmarks/compare_trajectory.py \
        --baseline /tmp/bench-baseline --current benchmarks/results \
        --max-regression 0.25 --report bench_gate_report.txt
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

#: Extra regression slack for memory ratios (see the module docstring).
MEMORY_SLACK = 2.0

#: Metric keys gated by default: self-normalised, hardware-stable ratios
#: where HIGHER is better, mapped to their slack multiplier.  Memory ratios
#: get double the regression slack; the tile-cache dedup rates are
#: deterministic fractions of the benchmark layout, so they get none.
RATIO_KEYS = {"peak_memory_ratio": MEMORY_SLACK,
              "hit_rate": 1.0, "warm_hit_rate": 1.0}
RATIO_SUFFIXES = ("speedup", "_speedup")

#: Gated ratio metrics where LOWER is better.  ``warm_share`` is the
#: tile-cache benchmark's all-hit wall-clock over its uncached one (what
#: serving a hit costs).
LOWER_BETTER_RATIO_KEYS = {"warm_share": 1.0}

#: Absolute metrics — reported always, gated only under --absolute.
HIGHER_BETTER_ABS = ("um2_per_second", "tiles_per_second")
LOWER_BETTER_ABS_SUFFIXES = ("seconds", "_seconds", "seconds_per_tile")

#: Keys that are numeric but are configuration, not performance.
IGNORED_KEYS = ("cpus", "num_workers", "conditions", "tiles_per_focus",
                "num_tiles", "batch_tiles", "shape", "layout_shape",
                "peak_bytes", "in_subprocess")


@dataclass(frozen=True)
class Comparison:
    """One metric compared between the baseline and the current run."""

    file: str
    path: str            # dotted JSON path of the metric
    baseline: float
    current: float
    higher_better: bool
    gated: bool
    slack: float = 1.0   # multiplier on the allowed regression (memory)

    @property
    def ratio(self) -> float:
        """current/baseline in the *better* direction (1.0 = unchanged)."""
        if self.baseline == 0:
            return float("inf") if self.current > 0 else 1.0
        raw = self.current / self.baseline
        return raw if self.higher_better else 1.0 / raw

    def regressed(self, max_regression: float) -> bool:
        allowed = min(max_regression * self.slack, 0.5)
        return self.gated and self.ratio < 1.0 - allowed


def _classify(key: str, absolute: bool) -> Optional[Tuple[bool, bool, float]]:
    """``(higher_better, gated, slack)`` for a metric key, ``None`` to skip."""
    if key in IGNORED_KEYS:
        return None
    if key in RATIO_KEYS:
        return True, True, RATIO_KEYS[key]
    if key in LOWER_BETTER_RATIO_KEYS:
        return False, True, LOWER_BETTER_RATIO_KEYS[key]
    if any(key == s or key.endswith(s) for s in RATIO_SUFFIXES):
        return True, True, 1.0
    if key in HIGHER_BETTER_ABS:
        return True, absolute, 1.0
    if any(key == s or key.endswith(s) for s in LOWER_BETTER_ABS_SUFFIXES):
        return False, absolute, 1.0
    return None


def _walk(baseline, current, path: str) -> Iterator[Tuple[str, str, float, float]]:
    """Parallel walk of two JSON trees, yielding matching numeric leaves."""
    if isinstance(baseline, dict) and isinstance(current, dict):
        for key in sorted(set(baseline) & set(current)):
            yield from _walk(baseline[key], current[key],
                             f"{path}.{key}" if path else key)
    elif isinstance(baseline, list) and isinstance(current, list):
        for index, (b, c) in enumerate(zip(baseline, current)):
            yield from _walk(b, c, f"{path}[{index}]")
    elif isinstance(baseline, (int, float)) and isinstance(current, (int, float)) \
            and not isinstance(baseline, bool) and not isinstance(current, bool):
        key = path.rsplit(".", 1)[-1].split("[")[0]
        yield key, path, float(baseline), float(current)


def compare_file(name: str, baseline: dict, current: dict,
                 absolute: bool) -> List[Comparison]:
    comparisons = []
    for key, path, base_value, cur_value in _walk(baseline, current, ""):
        classified = _classify(key, absolute)
        if classified is None:
            continue
        higher_better, gated, slack = classified
        comparisons.append(Comparison(file=name, path=path,
                                      baseline=base_value,
                                      current=cur_value,
                                      higher_better=higher_better,
                                      gated=gated, slack=slack))
    return comparisons


def compare_directories(baseline_dir: str, current_dir: str,
                        absolute: bool = False,
                        ) -> Tuple[List[Comparison], List[str]]:
    """Compare every ``*.json`` present in both directories.

    Returns the metric comparisons plus notes about files present on only
    one side (new benchmarks are fine; a *vanished* baseline is suspicious
    but non-fatal — the gate only judges what both runs measured).
    """
    baseline_files = {f for f in os.listdir(baseline_dir)
                      if f.endswith(".json")} if os.path.isdir(baseline_dir) else set()
    current_files = {f for f in os.listdir(current_dir)
                     if f.endswith(".json")} if os.path.isdir(current_dir) else set()
    comparisons: List[Comparison] = []
    notes = [f"note: {name} only in baseline (benchmark not re-run)"
             for name in sorted(baseline_files - current_files)]
    notes += [f"note: {name} only in current (new benchmark, no baseline yet)"
              for name in sorted(current_files - baseline_files)]
    for name in sorted(baseline_files & current_files):
        with open(os.path.join(baseline_dir, name), encoding="utf-8") as handle:
            baseline = json.load(handle)
        with open(os.path.join(current_dir, name), encoding="utf-8") as handle:
            current = json.load(handle)
        comparisons.extend(compare_file(name, baseline, current, absolute))
    return comparisons, notes


def format_report(comparisons: List[Comparison], notes: List[str],
                  max_regression: float) -> Tuple[str, int]:
    """Human-readable table + the exit code (1 when any gated metric fails)."""
    lines = [f"perf trajectory gate (fail below {1 - max_regression:.2f}x "
             f"on gated metrics)", ""]
    lines += [f"{'status':<8} {'ratio':>7}  metric"]
    failures = 0
    for comparison in comparisons:
        if comparison.regressed(max_regression):
            status, failures = "FAIL", failures + 1
        elif comparison.gated:
            status = "ok"
        else:
            status = "info"
        lines.append(f"{status:<8} {comparison.ratio:>6.2f}x  "
                     f"{comparison.file}:{comparison.path} "
                     f"({comparison.baseline:.6g} -> {comparison.current:.6g})")
    lines += [""] + notes
    gated = sum(comparison.gated for comparison in comparisons)
    lines.append(f"{gated} gated metric(s), {failures} regression(s) "
                 f"worse than {max_regression:.0%}")
    return "\n".join(lines) + "\n", (1 if failures else 0)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="directory holding the committed baseline JSONs")
    parser.add_argument("--current", required=True,
                        help="directory holding the freshly generated JSONs")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="fail when a gated metric drops below "
                             "(1 - this) of its baseline (default 0.25)")
    parser.add_argument("--absolute", action="store_true",
                        help="also gate absolute seconds / throughput "
                             "metrics (dedicated perf runners only)")
    parser.add_argument("--report", default="",
                        help="also write the comparison report to this file")
    arguments = parser.parse_args(argv)

    comparisons, notes = compare_directories(arguments.baseline,
                                             arguments.current,
                                             absolute=arguments.absolute)
    report, exit_code = format_report(comparisons, notes,
                                      arguments.max_regression)
    print(report, end="")
    if arguments.report:
        with open(arguments.report, "w", encoding="utf-8") as handle:
            handle.write(report)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
