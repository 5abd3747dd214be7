"""Tests of the benchmark harness itself (collected by tier-1; keep < 10 s).

The arithmetic the per-layer table rests on is tested on hand-made spans;
the process plumbing is tested by one ``--smoke`` round trip and one run
that is broken on purpose (a seam gone, a reference corrupted) and must
report that instead of crashing.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import compare, fixtures, metrics, probes

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def _env():
    return {key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")}


# --------------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------------- #
def _span(span_id, name, start, end, parent=None, op=0):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "op": op}


def test_self_time_subtracts_the_union_of_nested_and_overlapping_children():
    spans = [
        _span(0, "op", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),       # overlaps a: union is 1..6
        _span(3, "a.inner", 1.5, 2.5, parent=1),  # nested: only a loses it
        _span(4, "c", 9.0, 12.0, parent=0),       # sticks out: clipped to 10
    ]
    selfs = probes.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert all(value >= 0.0 for value in selfs.values())
    assert probes.unattributed_share(spans) == pytest.approx(0.4)
    totals = probes.per_op_totals(spans)
    assert totals[0]["a"] == pytest.approx(3.0)
    by_self = probes.per_op_totals(spans, self_time=True)
    assert by_self[0]["a"] == pytest.approx(2.0)


def test_tracer_records_parents_per_thread_and_nothing_while_disabled():
    tracer = probes.Tracer()
    with tracer.span("op", op="x"):
        with tracer.span("child"):
            pass
    tracer.enabled = False
    with tracer.span("ignored"):
        tracer.count("ignored")
    names = {span["name"]: span for span in tracer.spans}
    assert set(names) == {"op", "child"}
    assert names["child"]["parent"] == names["op"]["id"]
    assert names["child"]["op"] == "x"
    assert tracer.counts == {}


def test_span_metrics_counts_an_op_that_skipped_a_layer_as_zero():
    spans = [_span(0, "op", 0, 2, op=0), _span(1, "layout.load", 0, 1, 0, 0),
             _span(2, "op", 2, 4, op=1), _span(3, "op", 4, 6, op=2)]
    values = metrics.span_metrics(spans, {"layout.windows": 30.0}, ops=3)
    assert values["layout.load_s"] == 0.0       # median of [1, 0, 0]
    assert values["layout.windows"] == 10.0
    assert values["backend.fft_s"] is None


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert probes.tail_percentile(19) is None
    assert probes.tail_percentile(20) == 50.0
    assert probes.tail_percentile(40) == 75.0
    assert probes.tail_percentile(100) == 90.0
    assert probes.tail_percentile(200) == 95.0
    assert probes.tail_percentile(1000) == 99.0
    assert probes.tail_percentile(10000) == 99.9
    assert probes.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert probes.median([3.0, 1.0, 2.0]) == 2.0


def test_finish_layers_tells_zero_from_not_exercised_from_detached():
    names = ["backend.fft_s", "engine.develop_s", "service.job_s",
             "engine.pipeline_self_s"]
    layers, reasons = metrics.finish_layers(
        names, {"engine.pipeline_self_s": 0.1, "engine.develop_s": 0.2},
        attached={"fft"}, detached={"develop": "AttributeError: gone"},
        pipeline_probes=("engine", "develop"))
    assert layers["backend.fft_s"] == 0.0        # attached, never fired
    assert layers["engine.develop_s"] is None
    assert "gone" in reasons["engine.develop_s"]
    assert layers["service.job_s"] is None
    assert reasons["service.job_s"] == metrics.NOT_EXERCISED
    assert layers["engine.pipeline_self_s"] is None  # absorbs develop's time
    assert "develop" in reasons["engine.pipeline_self_s"]


# --------------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------------- #
def test_fixtures_are_a_function_of_the_seed(tmp_path):
    optics = fixtures.bench_optics()
    paths = [str(tmp_path / name) for name in ("a.gds", "b.gds", "c.gds")]
    fixtures.write_chip(paths[0], 5, 3, optics)
    fixtures.write_chip(paths[1], 5, 3, optics)
    fixtures.write_chip(paths[2], 5, 4, optics)
    blobs = [open(path, "rb").read() for path in paths]
    assert blobs[0] == blobs[1]
    assert blobs[0] != blobs[2]
    assert (fixtures.dense_raster(3, 256, optics)
            == fixtures.dense_raster(3, 256, optics)).all()
    assert (fixtures.dense_raster(3, 256, optics)
            != fixtures.dense_raster(4, 256, optics)).any()
    assert fixtures.service_seeds(2) != fixtures.service_seeds(3)


def test_chip_pitch_is_the_tile_core_and_fixes_the_raster_shape(tmp_path):
    from repro.layout import load_layout_source

    optics = fixtures.bench_optics()
    core = fixtures.tile_core_px(optics)
    assert 0 < core < optics.tile_size_px
    path = str(tmp_path / "chip5.gds")
    fixtures.write_chip(path, 5, 0, optics)
    reader = load_layout_source(path, optics.pixel_size_nm)
    assert reader.shape == (5 * core, 5 * core)


def test_a_chip_that_does_not_deduplicate_is_refused():
    assert fixtures.check_unique_share(75, 196) == pytest.approx(75 / 196)
    assert fixtures.check_unique_share(51, 100) == pytest.approx(0.51)
    with pytest.raises(RuntimeError, match="unique tiles"):
        fixtures.check_unique_share(100, 100)


# --------------------------------------------------------------------------- #
# compare.py
# --------------------------------------------------------------------------- #
def _suite(wall, failed=0, walls=None, smoke=False):
    return {"smoke": smoke, "workloads": {"dense_chip": {
        "attempted": 10, "failed": failed,
        "samples": {"op_wall_s": walls or [wall] * 10},
        "end_to_end": {"op_wall_norm_s_p25": wall, "throughput_um2_s": 67.0 / wall,
                       "peak_rss_mib": 700.0, "aerial_max_abs_err": 4e-3,
                       "setup_s": 2.0},
        "per_layer": {"backend.fft_calls": 4.0}}}}


def _verdicts(a_runs, b_runs):
    out = io.StringIO()
    code = compare.compare(a_runs, b_runs, metrics.load_spec(), out=out)
    rows = {line.split()[1]: line.split()[0]
            for line in out.getvalue().splitlines()
            if line.split()[1:2] and line.split()[2:3] == ["dense_chip"]}
    return code, rows, out.getvalue()


def test_compare_ok_regressed_unresolved_and_failures():
    code, rows, _ = _verdicts([_suite(0.40)], [_suite(0.41)])
    assert code == 0 and set(rows.values()) == {"ok"}

    code, rows, _ = _verdicts([_suite(0.40)], [_suite(0.60)])
    assert code == 1
    assert rows["op_wall_norm_s_p25"] == rows["throughput_um2_s"] == "regressed"
    assert rows["peak_rss_mib"] == "ok"

    # Same medians as the regression above, but each side's own ops are
    # spread wider than the bound and the ranges overlap: cannot tell.
    noisy = [0.3, 0.35, 0.4, 0.4, 0.45, 0.6, 0.6, 0.8, 0.9, 1.0]
    code, rows, _ = _verdicts([_suite(0.40, walls=noisy)],
                              [_suite(0.60, walls=noisy)])
    assert code == 0 and rows["op_wall_norm_s_p25"] == "unresolved"

    # Ten runs a side resolve what one run could not.
    code, rows, _ = _verdicts([_suite(0.40 + i / 1000) for i in range(10)],
                              [_suite(0.60 + i / 1000) for i in range(10)])
    assert code == 1 and rows["op_wall_norm_s_p25"] == "regressed"

    code, rows, text = _verdicts([_suite(0.40)], [_suite(0.40, failed=1)])
    assert code == 1 and rows["failed_ops_share"] == "regressed"

    _, _, text = _verdicts([_suite(0.40, smoke=True)], [_suite(0.40)])
    assert "side A holds --smoke runs" in text


def test_compare_lists_counts_that_should_repeat_exactly():
    changed = _suite(0.40)
    changed["workloads"]["dense_chip"]["per_layer"]["backend.fft_calls"] = 8.0
    code, _, text = _verdicts([_suite(0.40)], [changed])
    assert code == 0 and "differs    backend.fft_calls" in text


# --------------------------------------------------------------------------- #
# the harness end to end
# --------------------------------------------------------------------------- #
def test_spec_and_harness_name_the_same_workloads_and_metrics():
    from bench import workloads

    spec = metrics.load_spec()
    # The gated workloads are a subset: two more run for the record only.
    assert {entry["name"] for entry in spec["workloads"]} <= \
        set(workloads.WORKLOADS)
    assert spec["paths"] == ["bench"]
    assert "setup_s" in {entry["name"] for entry in spec["end_to_end"]}
    assert all(entry["bound"] <= 0.25 for entry in spec["end_to_end"])
    exact = {entry["name"] for entry in spec["per_layer"]}
    assert set(compare.EXACT_COUNTS) <= exact


def test_smoke_round_trip_all_hits_no_failures(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--workloads", "gds_repeat_warm",
         "--out", str(out)], env=_env(), cwd=str(tmp_path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stderr
    suite = json.loads(out.read_text())
    assert suite["smoke"] is True
    assert suite["provenance"]["fft_backend"]
    result = suite["workloads"]["gds_repeat_warm"]
    # 2 untraced ops, then 2 traced ops each followed by its untraced twin
    assert result["attempted"] == 6 and result["failed"] == 0
    spec = metrics.load_spec()
    assert set(result["end_to_end"]) == \
        {entry["name"] for entry in spec["end_to_end"]}
    assert set(result["per_layer"]) == \
        {entry["name"] for entry in spec["per_layer"]}
    assert result["per_layer"]["engine.tile_cache_hit_rate"] == 1.0
    assert result["per_layer"]["backend.fft_calls"] == 0.0
    assert result["per_layer"]["trace.probes_detached"] == 0.0
    assert result["per_layer"]["service.job_s"] is None
    for entry in spec["end_to_end"]:   # printed by name, with its unit
        assert f"{entry['name']} " in done.stdout and entry["unit"] in done.stdout
    assert "failed_ops_share" in done.stdout
    assert os.path.isfile(os.path.join(BENCH_DIR, "results",
                                       "trace-gds_repeat_warm.json"))
    leftovers = [name for name in os.listdir(os.path.join(BENCH_DIR, "results"))
                 if name.startswith("work-gds_repeat_warm")]
    assert leftovers == []             # scratch directories are removed


BROKEN_RUN = """
import argparse, json, sys, time
sys.path.insert(0, {root!r})
from bench import probes, run

def no_fft_probe(*args, **kwargs):
    raise AttributeError("module 'repro.backend' has no attribute 'FFTBackend'")

probes.make_fft_probe = no_fft_probe          # the seam a refactor removed
arguments = argparse.Namespace(
    workload="gds_repeat_warm", seed=1, smoke=True, trace=1, seconds=None,
    workdir={workdir!r}, spawned_at=time.time(), setup_only=False)
result = run.run_child(arguments, reference_hook=lambda reference: {{
    key: "0" * 64 for key in reference}})    # a corrupted reference digest
print(json.dumps(result))
"""


@pytest.fixture(scope="module")
def broken_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("broken")
    done = subprocess.run(
        [sys.executable, "-c",
         BROKEN_RUN.format(root=ROOT, workdir=str(workdir))],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_a_detached_probe_reads_null_with_a_reason_and_the_run_goes_on(
        broken_run):
    layers, reasons = broken_run["per_layer"], broken_run["reasons"]
    assert layers["backend.fft_s"] is None
    assert layers["backend.fft_calls"] is None
    assert "FFTBackend" in reasons["backend.fft_s"]
    assert layers["trace.probes_detached"] == 1.0
    # The other probes still listened, end-to-end numbers are all there.
    assert layers["layout.windows"] == 16.0
    assert layers["engine.tile_cache_hit_rate"] == 1.0
    assert broken_run["end_to_end"]["op_wall_norm_s_p25"] > 0.0


def test_a_corrupted_reference_surfaces_as_failed_ops_not_a_crash(
        broken_run):
    from bench import run

    assert broken_run["attempted"] == 6
    assert broken_run["failed"] == 6          # no sample silently dropped
    assert len(broken_run["samples"]["op_wall_s"]) == 2
    assert "differs from the reference" in broken_run["failures"][0]
    line = json.loads(run.driver_line(
        broken_run, metrics.load_spec()["end_to_end"],
        broken_run["end_to_end"]))
    assert line["correct"] is False and line["failed"] == 6
    good = dict(broken_run, failed=0)
    out = io.StringIO()
    code = compare.compare([{"workloads": {"gds_repeat_warm": good}}],
                           [{"workloads": {"gds_repeat_warm": broken_run}}],
                           metrics.load_spec(), out=out)
    assert code == 1
    assert "regressed  failed_ops_share" in out.getvalue()


def test_without_the_program_the_benchmark_refuses_to_report(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense_chip", "--seed",
         "1", "--seconds", "1", "--trace", "0"], cwd=str(tmp_path), env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "missing" in done.stderr
