"""Command-line interface for the reproduction.

Subcommands cover the typical library workflow without writing any Python:

* ``generate``   — build one of the benchmark datasets and save it as ``.npz``,
* ``train``      — train a Nitho model on a saved (or freshly built) dataset
  and store its parameters as a checkpoint,
* ``evaluate``   — evaluate a trained checkpoint on a dataset's test split,
* ``simulate``   — run the golden simulator on a dataset's test masks and
  report how well a checkpoint reproduces it (sanity check),
* ``image-layout`` — image an arbitrarily sized layout raster (synthetic or
  loaded from ``.npy``/``.npz``) through the batched, guard-banded tiling
  engine and save the stitched aerial / resist images; ``--out DIR`` images
  out-of-core in bounded-memory batches stitched incrementally into ``.npy``
  memmaps,
* ``sweep-window`` — run a focus x dose process-window qualification campaign
  over an arbitrary layout through the sweep layer and print the
  focus-exposure matrix + window summary;
  ``--store DIR`` persists every condition to a resumable campaign store
  (``--resume`` continues a killed campaign, computing only the remainder),
* ``campaign-report`` — render a stored campaign (CD table, process-window
  summary, per-focus aerial thumbnails when memmaps were kept) straight from
  a ``--store`` directory, with **zero recomputation** — no engine is built,
  so it doubles as a progress monitor for a live campaign,
* ``serve``      — run the campaign service: submit / monitor / cancel
  process-window campaigns over HTTP (see :mod:`repro.service` and
  ``docs/service.md``); campaigns persist through the resumable store, so a
  killed server recomputes exactly the remainder on restart,
* ``experiments``— run every table / figure driver (same as
  ``python -m repro.experiments.runner``).

``image-layout`` and ``sweep-window`` accept ``--input`` as a dense raster
(``.npy``/``.npz``) **or** a geometry layout file (``.json`` in the
repro-layout schema, or hierarchical binary GDSII); geometry
files image through the windowed layout readers in :mod:`repro.layout`, so
the dense raster never needs to exist — binary-GDSII cell hierarchies stay
hierarchical, with SREF/AREF instances resolved per window.

Run ``python -m repro.cli <subcommand> --help`` for the options.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from typing import List, Optional

import numpy as np

from .optics.simulator import OpticsConfig

# Paper packages are imported inside the paper handlers, never here: a
# production verb must not load them (tests/test_import_boundary.py).


def _dataset_from_args(arguments):
    from .masks.datasets import build_dataset
    from .masks.io import load_dataset

    if getattr(arguments, "dataset_file", None):
        return load_dataset(arguments.dataset_file)
    return build_dataset(arguments.dataset, preset=arguments.preset, seed=arguments.seed)


def _model_for_dataset(dataset, preset: str, seed: int):
    from .core import NithoModel
    from .experiments import ExperimentConfig

    config = ExperimentConfig(preset=preset, seed=seed)
    optics = OpticsConfig(tile_size_px=dataset.tile_size_px,
                          pixel_size_nm=dataset.pixel_size_nm)
    return NithoModel(optics, config.nitho_config())


def _print_metrics(label: str, metrics: dict) -> None:
    print(f"{label}: " + "  ".join(f"{key}={value:.4g}" for key, value in metrics.items()))


# --------------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------------- #
def command_generate(arguments) -> int:
    from .masks.datasets import build_dataset
    from .masks.io import save_dataset

    dataset = build_dataset(arguments.dataset, preset=arguments.preset, seed=arguments.seed)
    path = save_dataset(dataset, arguments.output)
    print(f"wrote {dataset.name}: {dataset.num_train} train / {dataset.num_test} test tiles "
          f"of {dataset.tile_size_px} px -> {path}")
    return 0


def command_train(arguments) -> int:
    from .nn.serialization import save_module

    dataset = _dataset_from_args(arguments)
    if dataset.num_train == 0:
        print(f"dataset {dataset.name} has no training tiles", file=sys.stderr)
        return 2
    model = _model_for_dataset(dataset, arguments.preset, arguments.seed)
    if arguments.epochs:
        model.config.epochs = arguments.epochs
    print(f"training Nitho on {dataset.name} "
          f"({dataset.num_train} tiles, kernel window {model.kernel_shape}, "
          f"{model.num_parameters()} parameters)")
    history = model.fit(dataset.train_masks, dataset.train_aerials, verbose=arguments.verbose)
    save_module(model.network, arguments.output)
    print(f"final training loss {history[-1]:.4e}; checkpoint written to {arguments.output}")
    return 0


def command_evaluate(arguments) -> int:
    from .metrics import aerial_metrics, resist_metrics
    from .nn.serialization import load_module

    dataset = _dataset_from_args(arguments)
    model = _model_for_dataset(dataset, arguments.preset, arguments.seed)
    load_module(model.network, arguments.checkpoint)
    model.load_state_dict(model.network.state_dict())

    predicted_aerials = model.predict_batch(dataset.test_masks)
    predicted_resists = model.resist_model.develop(predicted_aerials)
    aerial = aerial_metrics(dataset.test_aerials, predicted_aerials)
    resist = resist_metrics(dataset.test_resists, predicted_resists)
    _print_metrics("aerial", aerial)
    _print_metrics("resist", resist)
    if arguments.json_output:
        with open(arguments.json_output, "w", encoding="utf-8") as handle:
            json.dump({"aerial": aerial, "resist": resist}, handle, indent=2)
        print(f"metrics written to {arguments.json_output}")
    return 0


def command_simulate(arguments) -> int:
    from .metrics import aerial_metrics
    from .nn.serialization import load_module

    dataset = _dataset_from_args(arguments)
    count = min(arguments.tiles, dataset.num_test) if arguments.tiles else dataset.num_test
    masks = dataset.test_masks[:count]
    golden = dataset.test_aerials[:count]
    print(f"simulating {count} tiles of {dataset.name} at {dataset.tile_size_px} px")
    consistency = aerial_metrics(golden, golden)
    _print_metrics("golden self-consistency", consistency)
    if arguments.checkpoint:
        model = _model_for_dataset(dataset, arguments.preset, arguments.seed)
        load_module(model.network, arguments.checkpoint)
        model.load_state_dict(model.network.state_dict())
        predicted = model.predict_batch(masks)
        _print_metrics("checkpoint vs golden", aerial_metrics(golden, predicted))
    return 0


def _imaging_inputs(arguments):
    """``image-layout``'s ``(layout, EngineSpec)``, built before any
    imaging (the spec resolves the precision), or ``None`` after printing
    ``error: ...`` for unusable input.  Only this is guarded: an error while
    imaging is a bug and keeps its traceback."""
    from .engine import EngineSpec, TilingSpec
    from .layout import load_layout_source, synthesize_layout_mask
    from .optics.source import make_source

    try:
        if arguments.guard >= 0:
            TilingSpec(arguments.tile_size, arguments.guard)
        if arguments.input:
            mask = load_layout_source(arguments.input, arguments.pixel_size_nm)
        else:
            mask = synthesize_layout_mask(
                arguments.height, arguments.width, arguments.tile_size,
                arguments.pixel_size_nm, arguments.family, arguments.seed)
        config = OpticsConfig(tile_size_px=arguments.tile_size,
                              pixel_size_nm=arguments.pixel_size_nm)
        source = make_source(arguments.source) if arguments.source else None
        spec = EngineSpec(config=config, source=source,
                          compute=_compute_from_args(arguments))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return mask, spec


def _print_tile_cache_stats(stats) -> None:
    from .sweep.report import format_tile_cache

    if stats is not None:
        print(f"tile cache: {format_tile_cache(dataclasses.asdict(stats))}")


def _dense_mask(mask) -> np.ndarray:
    """The layout as the dense array the ``.npz`` outputs carry."""
    if hasattr(mask, "read_window"):
        # float: a geometry reader rasterises uint8 coverage, the file
        # format predates that
        return np.asarray(mask.read_window(0, 0, *mask.shape), dtype=float)
    return np.asarray(mask)


def command_image_layout(arguments) -> int:
    import time

    if not arguments.output and not arguments.out:
        print("image-layout needs --output (npz) and/or --out (memmap dir)",
              file=sys.stderr)
        return 2
    inputs = _imaging_inputs(arguments)
    if inputs is None:
        return 2
    mask, spec = inputs
    engine = spec.build()
    start = time.perf_counter()
    result = engine.image_layout(
        mask, tile_px=arguments.tile_size,
        guard_px=arguments.guard if arguments.guard >= 0 else None,
        out_dir=arguments.out or None)
    elapsed = time.perf_counter() - start

    height, width = mask.shape
    area_um2 = height * width * (arguments.pixel_size_nm / 1000.0) ** 2
    mode = "streamed" if (arguments.out or hasattr(mask, "read_window")) \
        else "imaged"
    print(f"{mode} {height}x{width} px layout "
          f"({result.num_tiles} tiles of {result.tiling.tile_px} px, "
          f"guard {result.tiling.guard_px} px) in {elapsed:.2f} s "
          f"({area_um2 / max(elapsed, 1e-9):.1f} um^2/s) "
          f"[{engine.backend.name} backend, {engine.precision.name}]")
    _print_tile_cache_stats(result.tile_stats)
    if arguments.out:
        print(f"aerial / resist memmaps written to {arguments.out}/ "
              f"(aerial.npy, resist.npy, meta.json)")
    if arguments.output:
        np.savez_compressed(arguments.output, mask=_dense_mask(mask),
                            aerial=np.asarray(result.aerial),
                            resist=np.asarray(result.resist))
        print(f"stitched aerial / resist written to {arguments.output}")
    return 0


def _parse_float_list(text: str, option: str) -> List[float]:
    try:
        values = [float(token) for token in text.split(",") if token.strip()]
    except ValueError as exc:
        raise SystemExit(f"{option} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise SystemExit(f"{option} expects comma-separated numbers, got {text!r}")
    return values


def _campaign_request(arguments) -> dict:
    """The ``sweep-window`` flags as the campaign service's request."""
    layout = {"kind": "file", "path": arguments.input} if arguments.input \
        else {"kind": "synthetic", "family": arguments.family,
              "width_px": arguments.width, "height_px": arguments.height,
              "seed": arguments.seed}
    optics = {"tile_size_px": arguments.tile_size,
              "pixel_size_nm": arguments.pixel_size_nm}
    if arguments.source:
        optics["source"] = arguments.source
    return {"layout": layout, "optics": optics,
            "grid": {"focus_nm": _parse_float_list(arguments.focus, "--focus"),
                     "dose": _parse_float_list(arguments.dose, "--dose")},
            "compute": _compute_from_args(arguments).as_dict(),
            "tolerance": arguments.tolerance,
            "target_cd_nm": arguments.target_cd,
            "guard_px": arguments.guard if arguments.guard >= 0 else None,
            "store_aerials": arguments.store_aerials}


def command_sweep_window(arguments) -> int:
    from .sweep import CampaignIdentityError
    from .sweep.campaign import CampaignRequest

    # Both flags act on the store: without one they would run a fresh
    # campaign and keep nothing.
    for flag, given in (("--resume", arguments.resume),
                        ("--store-aerials", arguments.store_aerials)):
        if given and not arguments.store:
            print(f"error: {flag} needs --store", file=sys.stderr)
            return 2
    # Parsing builds everything the campaign uses: unusable input is one
    # error line here, before any kernel bank; an error while imaging is a
    # bug and keeps its traceback.
    try:
        request = CampaignRequest.from_dict(_campaign_request(arguments))
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = request.run(arguments.store or None, arguments.resume,
                              arguments.cache_dir or None)
    except CampaignIdentityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mask, grid = request.layout, request.grid
    height, width = mask.shape
    print(f"process window of a {height}x{width} px layout: "
          f"{len(grid.focus_values_nm)} focus x {len(grid.dose_values)} dose "
          f"conditions, {outcome.num_tiles} tiles per focus -> "
          f"{outcome.elapsed_s:.2f} s")
    if outcome.store_dir:
        print(f"campaign store: {outcome.store_dir} "
              f"({outcome.computed_conditions} computed, "
              f"{outcome.skipped_conditions} resumed)")
    _print_tile_cache_stats(outcome.tile_stats)
    print()
    print(outcome.cd_table())
    print()
    print(outcome.summary())

    if arguments.output:
        # the window's points are the grid's conditions, focus-major
        points, shape = outcome.window.points, (len(grid.focus_values_nm),
                                                len(grid.dose_values))
        cd_nm = np.reshape([point.cd_nm for point in points], shape)
        in_spec = np.reshape([outcome.window.in_spec(point)
                              for point in points], shape)
        np.savez_compressed(arguments.output, mask=_dense_mask(mask), cd_nm=cd_nm,
                            in_spec=in_spec,
                            focus_values_nm=np.asarray(grid.focus_values_nm),
                            dose_values=np.asarray(grid.dose_values),
                            target_cd_nm=np.asarray(outcome.window.target_cd_nm),
                            tolerance=np.asarray(outcome.window.tolerance))
        print(f"\nfocus-exposure matrix written to {arguments.output}")
    return 0


def command_campaign_report(arguments) -> int:
    from .sweep.report import (
        load_campaign_report,
        render_campaign_report,
        render_campaign_report_html,
        render_campaign_report_json,
        save_aerial_thumbnails,
    )

    try:
        report = load_campaign_report(arguments.store)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if arguments.format == "json":
        print(render_campaign_report_json(report))
    elif arguments.format == "html":
        print(render_campaign_report_html(report))
    else:
        print(render_campaign_report(
            report, thumbnail_width=arguments.thumbnail_width))
    if arguments.thumbnails:
        paths = save_aerial_thumbnails(report, arguments.thumbnails)
        if paths:
            print(f"\n{len(paths)} PGM thumbnail(s) written to "
                  f"{arguments.thumbnails}/")
        else:
            print("\nno stored aerials to render (run sweep-window with a "
                  "store that keeps aerials)", file=sys.stderr)
    return 0


def command_serve(arguments) -> int:
    from .service import serve

    serve(arguments.data_dir, host=arguments.host, port=arguments.port,
          campaign_workers=arguments.campaign_workers)
    return 0


def command_experiments(arguments) -> int:
    from .experiments import run_all

    run_all(preset=arguments.preset, seed=arguments.seed,
            include_ablations=not arguments.skip_ablations)
    return 0


# --------------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------------- #
def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default="tiny", choices=("tiny", "small", "default"),
                        help="experiment scale preset")
    parser.add_argument("--seed", type=int, default=0)


def _add_layout_options(parser: argparse.ArgumentParser, width: int,
                        height: int) -> None:
    """Layout + optics options shared by the imaging subcommands; only the
    synthetic canvas's default size differs between them."""
    parser.add_argument("--input",
                        help="load a layout instead of synthesizing one: a "
                             "dense .npy/.npz raster, or a geometry file "
                             "(repro-layout .json / binary GDSII) "
                             "imaged through the windowed layout readers")
    parser.add_argument("--width", type=int, default=width, help="layout width (px)")
    parser.add_argument("--height", type=int, default=height, help="layout height (px)")
    parser.add_argument("--tile-size", type=int, default=256, help="tile size (px)")
    parser.add_argument("--guard", type=int, default=-1,
                        help="guard band per side (px); -1 sizes it from the "
                             "optical kernel window")
    parser.add_argument("--pixel-size-nm", type=float, default=4.0)
    parser.add_argument("--family", default="B2m", choices=("B1", "B2m", "B2v"),
                        help="synthetic layout family when no --input is given")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the synthetic layout")
    parser.add_argument("--source", default="",
                        help="illuminator (circular/annular/dipole/quadrupole); "
                             "default: the engine's annular source")


def _add_compute_options(parser: argparse.ArgumentParser) -> None:
    """Compute-policy knobs shared by the imaging subcommands."""
    parser.add_argument("--fft-workers", type=int, default=0,
                        help="threads one imaging call may spread its tiles "
                             "over (never changes results); 0 = "
                             "REPRO_FFT_WORKERS or all available CPUs")
    parser.add_argument("--precision", default="",
                        choices=("", "float64", "float32", "auto"),
                        help="imaging precision; float32 halves memory traffic "
                             "and doubles the chunked batch size; auto picks "
                             "float32 when the kernel bank's own SOCS "
                             "truncation error dominates the dtype error "
                             "(measured once per bank) (default: float64)")
    parser.add_argument("--tile-cache", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="content-addressed tile-result cache: image each "
                             "unique guard-banded tile once, stitch every "
                             "repeat from the cache (bit-for-bit identical); "
                             "default: off; REPRO_TILE_CACHE_DIR adds a disk "
                             "tier that persists across runs")


def _compute_from_args(arguments):
    """The :class:`~repro.backend.ComputeConfig` of the three compute flags;
    an unset flag stays ``None``, the code's default."""
    from .backend import ComputeConfig

    return ComputeConfig(fft_workers=arguments.fft_workers or None,
                         precision=arguments.precision or None,
                         tile_cache=arguments.tile_cache)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="build and save a benchmark dataset")
    _add_common(generate)
    generate.add_argument("--dataset", default="B1", choices=("B1", "B1opc", "B2m", "B2v"))
    generate.add_argument("--output", required=True, help="output .npz path")
    generate.set_defaults(handler=command_generate)

    train = subparsers.add_parser("train", help="train Nitho and save a checkpoint")
    _add_common(train)
    train.add_argument("--dataset", default="B1", choices=("B1", "B2m", "B2v"))
    train.add_argument("--dataset-file", help="load a dataset saved by 'generate' instead")
    train.add_argument("--epochs", type=int, default=0, help="override the preset's epoch count")
    train.add_argument("--output", required=True, help="checkpoint .npz path")
    train.add_argument("--verbose", action="store_true")
    train.set_defaults(handler=command_train)

    evaluate = subparsers.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    _add_common(evaluate)
    evaluate.add_argument("--dataset", default="B1", choices=("B1", "B1opc", "B2m", "B2v"))
    evaluate.add_argument("--dataset-file")
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--json-output", help="also write the metrics as JSON")
    evaluate.set_defaults(handler=command_evaluate)

    simulate = subparsers.add_parser("simulate", help="golden simulation / checkpoint sanity check")
    _add_common(simulate)
    simulate.add_argument("--dataset", default="B1", choices=("B1", "B1opc", "B2m", "B2v"))
    simulate.add_argument("--dataset-file")
    simulate.add_argument("--checkpoint")
    simulate.add_argument("--tiles", type=int, default=0, help="limit the number of tiles")
    simulate.set_defaults(handler=command_simulate)

    image_layout = subparsers.add_parser(
        "image-layout", help="image an arbitrary layout via batched guard-banded tiling",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  # save the stitched result as npz\n"
               "  repro image-layout --width 1024 --height 768 --output chip.npz\n"
               "  # out-of-core: bounded tile batches stitched into .npy memmaps\n"
               "  repro image-layout --width 8192 --height 8192 --out chip_dir\n"
               "  # both: bounded-memory imaging plus an npz copy\n"
               "  repro image-layout --out chip_dir --output chip.npz\n")
    _add_layout_options(image_layout, width=1024, height=768)
    image_layout.add_argument("--output", default="",
                              help="output .npz path (this and/or --out)")
    image_layout.add_argument("--out", default="",
                              help="stream the stitched aerial/resist into .npy "
                                   "memmaps under this directory in bounded "
                                   "tile batches (see repro.engine.streaming)")
    _add_compute_options(image_layout)
    image_layout.set_defaults(handler=command_image_layout)

    sweep = subparsers.add_parser(
        "sweep-window",
        help="focus x dose process-window sweep over a layout",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  # plain campaign, focus-exposure matrix to stdout + npz\n"
               "  repro sweep-window --focus=-80,-40,0,40,80 --dose 0.9,1.0,1.1 \\\n"
               "      --output window.npz\n"
               "  # disk-backed campaign: every condition persists immediately\n"
               "  repro sweep-window --store campaign_dir --output window.npz\n"
               "  # killed mid-campaign?  resume computes only the remainder\n"
               "  repro sweep-window --store campaign_dir --resume --output window.npz\n"
               "  # a layout larger than RAM images in bounded tile batches\n"
               "  repro sweep-window --store campaign_dir --input huge.npy\n")
    _add_layout_options(sweep, width=512, height=384)
    # argparse treats a bare "-80,-40,0" as an option string; widening the
    # (private, but stable across 3.10-3.13) negative-number matcher lets
    # `--focus -80,-40,0` work as naturally as `--focus=-80,-40,0` — which
    # stays the documented fallback should argparse internals ever change.
    # The sweep subparser defines no numeric options, so nothing else can
    # match.  The pattern also admits leading-dot floats like "-.5,0,.5".
    sweep._negative_number_matcher = re.compile(r"^-(\d|\.\d)[\d.,eE+-]*$")
    sweep.add_argument("--focus", default="-80,-40,0,40,80",
                       help="comma-separated focus offsets (nm), "
                            "e.g. --focus -80,-40,0,40,80")
    sweep.add_argument("--dose", default="0.9,1.0,1.1",
                       help="comma-separated relative doses")
    sweep.add_argument("--target-cd", type=float, default=0.0,
                       help="target CD (nm); 0 measures it at the nominal condition")
    sweep.add_argument("--tolerance", type=float, default=0.1,
                       help="relative CD tolerance defining the window")
    sweep.add_argument("--cache-dir", default="",
                       help="kernel-bank cache directory: decomposed banks "
                            "persist here across runs "
                            "(default: REPRO_KERNEL_CACHE_DIR)")
    sweep.add_argument("--store", default="",
                       help="campaign-store directory: a resumable "
                            "manifest + a completion log with one line per "
                            "condition (see repro.sweep.store)")
    sweep.add_argument("--resume", action="store_true",
                       help="continue an interrupted campaign in --store, "
                            "skipping completed conditions (without this "
                            "flag a non-empty store is refused)")
    sweep.add_argument("--store-aerials", action="store_true",
                       help="also persist each focus's stitched aerial into "
                            "--store as an .npy memmap (rendered by "
                            "campaign-report --thumbnail-width/--thumbnails)")
    sweep.add_argument("--output", default="",
                       help="optional output .npz for the focus-exposure matrix")
    _add_compute_options(sweep)
    sweep.set_defaults(handler=command_sweep_window)

    campaign_report = subparsers.add_parser(
        "campaign-report",
        help="render a stored campaign (CD table, window summary, aerial "
             "thumbnails) with zero recomputation",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  # text report of a finished (or still-running) campaign\n"
               "  repro campaign-report --store campaign_dir\n"
               "  # with ASCII thumbnails of any stored per-focus aerials\n"
               "  repro campaign-report --store campaign_dir --thumbnail-width 48\n"
               "  # write PGM thumbnails next to the report\n"
               "  repro campaign-report --store campaign_dir --thumbnails thumbs/\n")
    campaign_report.add_argument("--store", required=True,
                                 help="campaign-store directory written by "
                                      "sweep-window --store")
    campaign_report.add_argument("--format", default="text",
                                 choices=("text", "json", "html"),
                                 help="report rendering: the classic text "
                                      "report, machine-readable JSON, or a "
                                      "self-contained HTML page (the same "
                                      "formats the campaign service serves)")
    campaign_report.add_argument("--thumbnail-width", type=int, default=0,
                                 help="render stored per-focus aerials as "
                                      "ASCII art this many columns wide "
                                      "(0 = list files only; text format "
                                      "only)")
    campaign_report.add_argument("--thumbnails", default="",
                                 help="also write each stored aerial as an "
                                      "8-bit PGM into this directory")
    campaign_report.set_defaults(handler=command_campaign_report)

    serve = subparsers.add_parser(
        "serve",
        help="run the campaign service: process-window campaigns over HTTP",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  # serve campaigns on the default port\n"
               "  repro serve --data-dir service_data\n"
               "  # submit one from another shell (see repro.service.client)\n"
               "  python -c \"from repro.service import ServiceClient; ...\"\n"
               "\n"
               "POST /campaigns submits a JSON campaign request; GET\n"
               "/campaigns/{id}/report?format=json|html|text renders the\n"
               "stored campaign with zero recomputation.  Campaigns persist\n"
               "through the resumable store: a killed server recomputes\n"
               "exactly the remainder on restart.  See docs/service.md.\n")
    serve.add_argument("--data-dir", required=True,
                       help="service state directory: campaign stores live "
                            "under <data-dir>/campaigns/<id>, the shared "
                            "kernel-bank cache under <data-dir>/kernel-cache")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: loopback only)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port; 0 lets the OS pick one")
    serve.add_argument("--campaign-workers", type=int, default=2,
                       help="how many campaigns run at once (the rest "
                            "wait queued)")
    serve.set_defaults(handler=command_serve)

    experiments = subparsers.add_parser("experiments", help="run every table / figure driver")
    _add_common(experiments)
    experiments.add_argument("--skip-ablations", action="store_true")
    experiments.set_defaults(handler=command_experiments)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except BrokenPipeError:
        # stdout closed early (``campaign-report --format html | head``):
        # exit quietly like any well-behaved pipeline stage.  Detach stdout
        # so interpreter shutdown doesn't raise a second time on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the conventional shell status


if __name__ == "__main__":
    sys.exit(main())
