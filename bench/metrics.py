"""Turn samples, spans and counters into the named benchmark metrics.

``BENCHMARK.json`` at the repository root is the one list of metric names,
units and directions; this module only computes values for those names.
A per-layer value of ``None`` comes with a reason: the workload never enters
that layer, or the probe that feeds it could not attach.
"""

from __future__ import annotations

import json
import os
import resource
import time
from typing import Dict, List, Optional, Sequence, Tuple

from bench import fixtures, probes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Tile seeds of the accuracy probe.  Fixed — not derived from ``--seed`` —
#: because the metric guards the *program's* SOCS truncation and precision,
#: and must read the same whatever layout a run happens to image.
ACCURACY_PROBE_SEED = 20230901

NOT_EXERCISED = "not exercised by this workload"
TOO_FEW_SAMPLES = "too few timed ops: no percentile has ten samples beyond it"

#: Which probe feeds which per-layer metric (prefix match).
PROBE_OF = (
    ("backend.", "fft"),
    ("engine.aerial_", "engine"),
    ("engine.tiles_imaged", "engine"),
    ("engine.bank_get_s", "bank"),
    ("engine.tile_cache_self_s", "tile_cache"),
    ("engine.develop_s", "develop"),
    ("layout.read_window_s", "reader"),
    ("layout.window_is_empty_s", "reader"),
    ("layout.windows", "reader"),
    ("sweep.store_", "store"),
    ("service.submit_s", "client"),
    ("service.poll_requests", "client"),
    ("service.report_s", "client"),
    ("service.wait_overhead_s", "client"),
)


def load_spec() -> dict:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def usage_snapshot(live_pids: Sequence[int] = ()) -> Dict[str, float]:
    """CPU seconds and minor faults of this process, the children it has
    reaped, and the still-running children named in ``live_pids``."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {"user_s": own.ru_utime + kids.ru_utime,
             "sys_s": own.ru_stime + kids.ru_stime,
             "minor_faults": float(own.ru_minflt + kids.ru_minflt)}
    tick = os.sysconf("SC_CLK_TCK")
    for pid in live_pids:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            # Fields after the parenthesised command name, which may itself
            # contain spaces: minflt is the 10th of the line, utime/stime
            # the 14th/15th.
            fields = handle.read().rsplit(")", 1)[1].split()
        usage["minor_faults"] += float(fields[7])
        usage["user_s"] += int(fields[11]) / tick
        usage["sys_s"] += int(fields[12]) / tick
    return usage


def peak_rss_mib(live_pids: Sequence[int] = ()) -> float:
    """Largest resident set of this process, any child it has reaped, or a
    still-running child named in ``live_pids`` (its ``VmHWM``)."""
    peaks_kib = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    for pid in live_pids:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            peaks_kib += [int(line.split()[1]) for line in handle
                          if line.startswith("VmHWM:")]
    return max(peaks_kib) / 1024.0


def aerial_max_abs_err(optics) -> float:
    """Max |engine aerial - rigorous Abbe aerial| on the fixed probe tile,
    imaged with the product's default compute policy."""
    import numpy as np
    from repro.engine import ExecutionEngine
    from repro.optics.simulator import LithographySimulator

    tile = fixtures.dense_raster(ACCURACY_PROBE_SEED, optics.tile_size_px,
                                 optics)
    engine = ExecutionEngine.for_optics(optics)
    fast = engine.aerial_batch(tile[None])[0]
    rigorous = LithographySimulator(optics).aerial_rigorous(tile)
    return float(np.abs(fast - rigorous).max())


def end_to_end(setup_s: float, walls: Sequence[float],
               yardsticks: Sequence[float], area_um2: float, rss_mib: float,
               accuracy: float) -> Dict[str, float]:
    """The gated numbers of one run (``failed`` travels beside them)."""
    # Lower quartiles, not medians: this host stalls a third of the ops
    # (page faults), and where the stalled mode begins moves from run to run
    # — on gds_repeat_cold the median sits right there and ten runs of one
    # commit spread 22 %, their lower quartiles 11 %.  A slower program moves
    # every op, the fast ones included.  Then divided by the host's speed at
    # the time (see `workloads.yardstick`).
    fast = probes.percentile(walls, 25.0) / host_slowdown(yardsticks)
    return {"setup_s": setup_s, "op_wall_norm_s_p25": fast,
            "throughput_um2_s": area_um2 / fast, "peak_rss_mib": rss_mib,
            "aerial_max_abs_err": accuracy}


def host_slowdown(yardsticks: Sequence[float]) -> float:
    """How much slower than nominal the host ran during a phase."""
    from bench import workloads

    return probes.percentile(yardsticks, 25.0) / workloads.YARDSTICK_NOMINAL_S


def bank_microbench(optics, workdir: str, repeats: int = 2,
                    ) -> Dict[str, float]:
    """Kernel-bank build, disk-tier write and load, each from cold."""
    from repro.engine import ExecutionEngine, KernelBankCache

    def build(cache) -> float:
        begin = time.perf_counter()
        ExecutionEngine.for_optics(optics, cache=cache)
        return time.perf_counter() - begin

    # The write is ~20 ms on top of a ~400 ms decomposition; the fastest of
    # `repeats` builds each way keeps a scheduling hiccup out of the
    # difference.
    directories = [os.path.join(workdir, f"bank-probe-{index}")
                   for index in range(repeats)]
    build_s = min(build(KernelBankCache()) for _ in directories)
    build_write_s = min(build(KernelBankCache(cache_dir=directory))
                        for directory in directories)
    directory = directories[0]
    load_s = build(KernelBankCache(cache_dir=directory))
    size = sum(os.path.getsize(os.path.join(directory, entry))
               for entry in os.listdir(directory))
    return {"engine.bank_build_s": build_s,
            "engine.bank_disk_write_s": max(build_write_s - build_s, 0.0),
            "engine.bank_disk_load_s": load_s,
            "engine.bank_disk_bytes": float(size)}


def repo_counts() -> Dict[str, float]:
    """Non-blank source lines under ``src/`` and the façade's public names."""
    import repro.api

    lines = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "r",
                          encoding="utf-8") as handle:
                    lines += sum(1 for line in handle if line.strip())
    return {"repo.src_loc": float(lines),
            "repo.api_names": float(len(repro.api.__all__))}


def proc_metrics(before: Dict[str, float], after: Dict[str, float],
                 phase) -> Dict[str, Optional[float]]:
    """CPU, faults and raw wall-clock of the untraced ops (the yardsticks
    run between them are taken out)."""
    walls = phase.wall_s
    ops = len(walls)
    pct = probes.tail_percentile(ops)
    spent = {key: after[key] - before[key] - phase.yardstick_usage[key]
             for key in before}
    return {
        "proc.op_wall_s_p25": probes.percentile(walls, 25.0),
        "proc.op_wall_s_p50": probes.median(walls),
        "proc.host_slowdown": host_slowdown(phase.yardstick_s),
        "proc.user_s_per_op": spent["user_s"] / ops,
        "proc.sys_s_per_op": spent["sys_s"] / ops,
        "proc.minor_faults_per_op": spent["minor_faults"] / ops,
        "proc.tail_pct": pct,
        "proc.op_wall_s_tail": probes.percentile(walls, pct)
        if pct is not None else None,
    }


def span_metrics(spans: Sequence[probes.Span], counts: Dict[str, float],
                 ops: int) -> Dict[str, Optional[float]]:
    """Per-layer medians over traced ops: busy time, self time, counts."""
    totals = probes.per_op_totals(spans)
    selfs = probes.per_op_totals(spans, self_time=True)

    def med(table, name) -> Optional[float]:
        values = [bucket[name] for op, bucket in table.items()
                  if op is not None and name in bucket]
        # An op that never entered the layer spent 0 s there.
        values += [0.0] * (ops - len(values)) if values else []
        return probes.median(values)

    def per_op(name) -> Optional[float]:
        return counts[name] / ops if name in counts else None

    fft_s, gflop = med(totals, "backend.fft"), per_op("backend.fft_gflop")
    return {
        "backend.fft_s": fft_s,
        "backend.fft_calls": per_op("backend.fft_calls"),
        "backend.fft_gflop": gflop,
        "backend.fft_gflop_s": gflop / fft_s if fft_s and gflop else None,
        "engine.aerial_batch_s": med(totals, "engine.aerial_batch"),
        "engine.aerial_self_s": med(selfs, "engine.aerial_batch"),
        "engine.tiles_imaged": per_op("engine.tiles_imaged"),
        "engine.bank_get_s": med(totals, "engine.bank_get"),
        "engine.tile_cache_self_s": med(selfs, "engine.tile_cache"),
        "engine.pipeline_self_s": med(selfs, "engine.image_layout"),
        "engine.develop_s": med(totals, "engine.develop"),
        "layout.load_s": med(totals, "layout.load"),
        "layout.read_window_s": med(totals, "layout.read_window"),
        "layout.window_is_empty_s": med(totals, "layout.window_is_empty"),
        "layout.windows": per_op("layout.windows"),
        "cli.sweep_window_s": med(totals, "cli.sweep_window"),
        "cli.campaign_report_s": med(totals, "cli.campaign_report"),
    }


def service_metrics(spans: Sequence[probes.Span],
                    statuses: Sequence[Dict[str, object]],
                    ) -> Dict[str, Optional[float]]:
    """Client-side request spans joined with the server's own timestamps."""
    totals = probes.per_op_totals(spans)
    polls: Dict[object, int] = {}
    for span in spans:
        if span["name"] == "service.poll":
            polls[span["op"]] = polls.get(span["op"], 0) + 1
    queue_wait, job, overhead = [], [], []
    for status in statuses:
        job_s = status["finished_at"] - status["started_at"]
        queue_wait.append(status["started_at"] - status["created_at"])
        job.append(job_s)
        bucket = totals.get(status["op"], {})
        if "service.submit" in bucket:
            overhead.append(status["client_wall_s"] - job_s
                            - bucket["service.submit"]
                            - bucket.get("service.report", 0.0))

    def per_request(name) -> Optional[float]:
        return probes.median([span["end"] - span["start"] for span in spans
                              if span["name"] == name])

    return {
        "service.submit_s": per_request("service.submit"),
        "service.report_s": per_request("service.report"),
        "service.poll_requests": probes.median(list(polls.values())),
        "service.queue_wait_s": probes.median(queue_wait),
        "service.job_s": probes.median(job),
        "service.wait_overhead_s": probes.median(overhead),
    }


def finish_layers(names: Sequence[str], values: Dict[str, Optional[float]],
                  attached: Sequence[str], detached: Dict[str, str],
                  pipeline_probes: Sequence[str],
                  ) -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """Exactly the named metrics, each a number or ``None`` with a reason.

    A probe that attached but never fired measured a true zero (an all-hit
    cache pass makes no FFT call); a probe that could not attach, or a layer
    the workload never enters, yields ``None``.
    """
    layers: Dict[str, Optional[float]] = {}
    reasons: Dict[str, str] = {}
    for name in names:
        value = values.get(name)
        probe = next((probe for prefix, probe in PROBE_OF
                      if name.startswith(prefix)), None)
        if probe in detached:
            value, reasons[name] = None, f"probe '{probe}' detached: " \
                f"{detached[probe]}"
        elif name == "engine.pipeline_self_s" and value is not None:
            missing = [probe for probe in pipeline_probes if probe in detached]
            if missing:
                value, reasons[name] = None, \
                    f"needs the detached probe(s) {', '.join(missing)}"
        elif value is None and probe in attached:
            value = 0.0
        elif value is None:
            reasons[name] = TOO_FEW_SAMPLES if name.startswith("proc.") \
                else NOT_EXERCISED
        layers[name] = value
    return layers, reasons


def write_trace(path: str, workload: str, spans: List[probes.Span],
                counts: Dict[str, float], detached: Dict[str, str]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    origin = min((span["start"] for span in spans), default=0.0)
    payload = {
        "workload": workload,
        "clock": "seconds since the first span (time.perf_counter)",
        "spans": [dict(span, start=span["start"] - origin,
                       end=span["end"] - origin)
                  for span in sorted(spans, key=lambda s: s["start"])],
        "counts": counts,
        "detached_probes": detached,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
