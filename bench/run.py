#!/usr/bin/env python3
"""End-to-end benchmark of the lithography imaging stack.

Two ways to run it, one code path underneath:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one workload, time-boxed; the last line of standard output is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` holding the
    end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``).  This is the form ``BENCHMARK.json`` names.

``python3 bench/run.py [--seed N] [--workloads a,b] [--out FILE] [--smoke]``
    every workload in turn with fixed operation counts, both phases, every
    metric printed by name with its unit, trace files written to
    ``bench/results/``, and the whole result saved for ``bench/compare.py``.

Each workload runs in a fresh child process, so caches and peak RSS are per
workload; set-up is sampled in further children that stop at the first op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
# The harness imports as the `bench` package and the program as `repro`;
# run as a script, neither parent directory is on the path yet.
for _path in (SRC_DIR, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Children that run set-up only, besides the measuring child: `setup_s` is
#: the lower quartile of all of them.
EXTRA_SETUP_SAMPLES = 2
#: Share of `--seconds` the untraced phase gets in a `--trace 1` run.
TRACE_UNTRACED_SHARE = 0.4
CHILD_TIMEOUT_S = 170.0


# --------------------------------------------------------------------------- #
# the workload child
# --------------------------------------------------------------------------- #
def provenance() -> dict:
    """What the product resolved by itself on this machine — recorded, never
    pinned, so a PR that changes a default shows up in the numbers."""
    import numpy
    from repro.backend import ComputeConfig, get_backend, resolve_precision
    from repro.engine import DEFAULT_SCHEDULER, available_workers

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    backend = get_backend()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": available_workers(),
        "fft_backend": backend.name,
        "fft_workers": getattr(backend, "workers", None),
        "precision": resolve_precision(None).name,
        "scheduler": DEFAULT_SCHEDULER,
        "compute_config": ComputeConfig().resolve().as_dict(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": commit,
    }


def run_child(arguments, reference_hook=None) -> dict:
    """Set up one workload, measure it, verify it; returns the result dict.

    ``reference_hook(reference) -> reference`` exists for the harness test
    that corrupts a reference digest and expects failures, not a crash.
    """
    from bench import metrics, workloads

    spec = metrics.load_spec()
    context = workloads.Context(seed=arguments.seed,
                                workdir=arguments.workdir,
                                smoke=arguments.smoke)
    workload = workloads.WORKLOADS[arguments.workload](context)
    try:
        workload.setup()
        setup_s = time.time() - arguments.spawned_at
        if arguments.setup_only:
            return {"workload": workload.name, "setup_s": setup_s}
        return measure(workload, arguments, spec, setup_s, reference_hook)
    finally:
        workload.close()


def measure(workload, arguments, spec, setup_s, reference_hook) -> dict:
    from bench import metrics, workloads

    trace = bool(arguments.trace)
    ops = 2 if arguments.smoke else workload.ops
    traced_ops = 2 if arguments.smoke else workload.traced_ops
    if arguments.seconds is None:
        untraced = workloads.Budget(ops=ops)
        traced = workloads.Budget(ops=traced_ops)
    else:
        share = TRACE_UNTRACED_SHARE if trace else 1.0
        floor = min(3, traced_ops)
        untraced = workloads.Budget(seconds=arguments.seconds * share,
                                    min_ops=floor)
        traced = workloads.Budget(seconds=arguments.seconds * (1.0 - share),
                                  min_ops=floor)

    usage_before = metrics.usage_snapshot(workload.live_pids())
    phase = workload.run_phase(untraced)
    usage_after = metrics.usage_snapshot(workload.live_pids())
    # Read now: the traced phase, the layer micro-benchmarks and the
    # reference below are the harness's own work and must not raise it.
    rss_mib = metrics.peak_rss_mib(workload.live_pids())
    outputs, keys = list(phase.outputs), list(phase.keys)

    layers, reasons = {}, {}
    if trace:
        values = metrics.proc_metrics(usage_before, usage_after, phase)
        values.update(traced_phase(workload, traced, phase, outputs, keys))
        names = [entry["name"] for entry in spec["per_layer"]]
        layers, reasons = metrics.finish_layers(
            names, values, workload.probes.attached,
            workload.probes.detached, workload.pipeline_probes)
        metrics.write_trace(
            os.path.join(RESULTS_DIR, f"trace-{workload.name}.json"),
            workload.name, workload.tracer.spans, workload.tracer.counts,
            workload.probes.detached)

    workload.close()
    reference = workload.reference(keys)
    if reference_hook is not None:
        reference = reference_hook(reference)
    failures = workloads.count_failures(outputs, keys, reference)
    accuracy = metrics.aerial_max_abs_err(workload.optics)
    return {
        "workload": workload.name,
        "attempted": len(outputs),
        "failed": len(failures),
        "failures": failures[:10],
        "samples": {"op_wall_s": phase.wall_s},
        "end_to_end": metrics.end_to_end(
            setup_s, phase.wall_s, phase.yardstick_s, workload.area_um2(),
            rss_mib, accuracy),
        "per_layer": layers,
        "reasons": reasons,
        "provenance": provenance(),
    }


def stat_deltas(deltas) -> dict:
    """Per-op mean of a list of ``*Stats`` counter deltas (exact counts)."""
    return {key: sum(delta[key] for delta in deltas) / len(deltas)
            for key in (deltas[0] if deltas else ())}


def traced_phase(workload, budget, untraced, outputs, keys) -> dict:
    """Run the probed trip and assemble every per-layer value it feeds."""
    from bench import metrics, probes

    workload.attach_probes()
    phase = workload.run_phase(budget, traced=True)
    outputs.extend(phase.outputs)
    keys.extend(phase.keys)
    ops = len(phase.wall_s)

    tracer = workload.tracer
    values = metrics.span_metrics(tracer.spans, tracer.counts, ops)
    values.update(metrics.service_metrics(
        tracer.spans, getattr(workload, "statuses", ())))
    for name, per_op in stat_deltas(workload.bank_deltas).items():
        if name in ("hits", "misses", "disk_loads"):
            values[f"engine.bank_{name}"] = per_op
    tiles = stat_deltas(workload.tile_deltas)
    if tiles.get("tiles"):
        values["engine.tile_cache_hit_rate"] = \
            (tiles["hits"] + tiles["zero_hits"]) / tiles["tiles"]
        values["engine.tile_cache_misses"] = tiles["misses"]
        values["engine.tile_cache_evictions"] = tiles["evictions"]
    extras = workload.layer_extras()
    outputs.extend(workload.extra_outputs)
    keys.extend([None] * len(workload.extra_outputs))
    if "engine.serial_op_s" in extras:
        values["engine.pool2_speedup"] = extras.pop("engine.serial_op_s") \
            / probes.median(untraced.wall_s)
    values.update(extras)
    values.update(metrics.bank_microbench(
        workload.optics, workload.context.workdir,
        repeats=1 if workload.context.smoke else 2))
    values.update(metrics.repo_counts())
    # Against the untraced ops interleaved with the traced ones where the
    # workload has them (two phases minutes apart differ by more than any
    # probe costs), and on the lower quartiles: a probe's cost shows in the
    # fast mode, while the sandbox's page-fault stalls hit either side at
    # random and swing a median of nine by +-25 %.
    values["trace.overhead_ratio"] = probes.percentile(phase.wall_s, 25.0) \
        / probes.percentile(phase.paired_wall_s or untraced.wall_s, 25.0)
    values["trace.unattributed_share"] = \
        probes.unattributed_share(tracer.spans)
    values["trace.probes_detached"] = float(len(workload.probes.detached))
    return values


def child_main(arguments) -> int:
    result = run_child(arguments)
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------- #
# the parent
# --------------------------------------------------------------------------- #
def spawn(workload: str, arguments, trace: int, setup_only: bool = False,
          ) -> dict:
    """One workload child in its own session and scratch directory."""
    from bench import workloads

    os.makedirs(RESULTS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=RESULTS_DIR)
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(arguments.seed),
               "--trace", str(trace), "--workdir", workdir,
               "--spawned-at", repr(time.time())]
    if arguments.seconds is not None:
        command += ["--seconds", repr(arguments.seconds)]
    if arguments.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    child = subprocess.Popen(command, env=workloads.scrubbed_env(),
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        # Whatever happened — time-out, Ctrl-C, a crash — nothing the child
        # started (server, pool workers) may outlive it.
        try:
            os.killpg(child.pid, signal.SIGTERM)
            time.sleep(0.2)
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        child.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if child.returncode != 0:
        raise RuntimeError(
            f"workload {workload} child exited {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, arguments, trace: int,
                 sample_setup: bool) -> dict:
    """The measuring child, plus set-up-only children for `setup_s`."""
    from bench import probes

    result = spawn(workload, arguments, trace)
    setups = [result["end_to_end"]["setup_s"]]
    if sample_setup:
        setups += [spawn(workload, arguments, 0, setup_only=True)["setup_s"]
                   for _ in range(EXTRA_SETUP_SAMPLES)]
    result["samples"]["setup_s"] = setups
    # Lower quartile, like the op time: a stall only ever adds.
    result["end_to_end"]["setup_s"] = probes.percentile(setups, 25.0)
    return result


def driver_line(result: dict, entries, values: dict) -> str:
    """The one-line contract of `--workload` mode."""
    metrics = {entry["name"]: {
        # A per-layer `null` (layer not entered / probe detached) reads 0
        # here; the reason is in the trace file and in full-run output.
        "value": values[entry["name"]]
        if values[entry["name"]] is not None else 0.0,
        "unit": entry["unit"]} for entry in entries}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_workload(result: dict, spec: dict) -> None:
    print(f"== {result['workload']} "
          f"({len(result['samples']['op_wall_s'])} timed ops)")
    share = result["failed"] / result["attempted"]
    for entry in spec["end_to_end"]:
        value = result["end_to_end"][entry["name"]]
        print(f"  {entry['name']:<28} {value:>14.6g} {entry['unit']}")
    print(f"  {'failed_ops_share':<28} {share:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for line in result["failures"]:
        print(f"    FAILED {line}")
    for entry in spec["per_layer"]:
        value = result["per_layer"].get(entry["name"])
        if value is None:
            reason = result["reasons"].get(entry["name"], "not measured")
            print(f"  {entry['name']:<28} {'null':>14} ({reason})")
        else:
            print(f"  {entry['name']:<28} {value:>14.6g} {entry['unit']}")


def parent_main(arguments) -> int:
    from bench import metrics, workloads

    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {SRC_DIR}/repro is missing",
              file=sys.stderr)
        return 2
    spec = metrics.load_spec()
    # `BENCHMARK.json` lists the gated workloads; the harness runs those and
    # the two that are measured for the record only (see README).
    known = list(workloads.WORKLOADS)

    if arguments.workload:
        if arguments.workload not in known:
            print(f"error: unknown workload {arguments.workload!r}; choose "
                  f"from {', '.join(known)}", file=sys.stderr)
            return 2
        # `--trace 1` prints no `setup_s`, so it is not sampled.
        result = run_workload(arguments.workload, arguments, arguments.trace,
                              sample_setup=not arguments.trace)
        for line in result["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
        if arguments.trace:
            print(driver_line(result, spec["per_layer"], result["per_layer"]))
        else:
            print(driver_line(result, spec["end_to_end"],
                              result["end_to_end"]))
        return 0

    chosen = arguments.workloads.split(",") if arguments.workloads else known
    unknown = [name for name in chosen if name not in known]
    if unknown:
        print(f"error: unknown workload(s) {', '.join(unknown)}; choose "
              f"from {', '.join(known)}", file=sys.stderr)
        return 2
    suite = {"schema": 1, "smoke": bool(arguments.smoke),
             "seed": arguments.seed, "seconds": arguments.seconds,
             "workloads": {}}
    for name in chosen:
        result = run_workload(name, arguments, trace=1,
                              sample_setup=not arguments.smoke)
        suite["provenance"] = result.pop("provenance")
        suite["workloads"][name] = result
        print_workload(result, spec)
    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as handle:
            json.dump(suite, handle, indent=1)
            handle.write("\n")
        print(f"results written to {arguments.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload and print "
                        "the one-line JSON result")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box each phase (default: fixed op counts)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset for a full run")
    parser.add_argument("--out", default="", help="save a full run as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs, 2 ops: exercises the harness, "
                             "measures nothing")
    for internal in ("--child", "--setup-only"):
        parser.add_argument(internal, action="store_true",
                            help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)
    # A SIGTERM — to the parent or to a child — must still run the `finally`
    # blocks that stop the server, the pool workers and remove scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if arguments.child:
        return child_main(arguments)
    return parent_main(arguments)


if __name__ == "__main__":
    raise SystemExit(main())
