"""The six benchmark workloads: set-up, one timed operation, the reference it
must reproduce, and the same trip one level down with probes attached.

End-to-end operations use only the surfaces meant to survive refactors —
``repro.api``, ``python -m repro.cli`` and ``ServiceClient`` over HTTP — with
the product's default compute policy.  The traced trips use the public seams
listed in :mod:`bench.probes`.  Every workload is closed-loop: the next
operation starts when the previous one has returned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from bench import fixtures, probes

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Fixed operation counts of a full run (both commits of a comparison do
# identical work); ``--seconds`` time-boxes the phase instead.
TRACED_OPS = 9

#: Typical lower-quartile seconds of one :func:`yardstick` on this sandbox
#: (0.037 in its quiet hours, 0.053 in busy ones).  Only a scale: it makes normalised seconds read like real
#: ones, and cancels out of any comparison.
YARDSTICK_NOMINAL_S = 0.044
_YARDSTICK_TILE = None


def yardstick() -> float:
    """Seconds one fixed computation takes on this host right now.

    The sandbox is two cores of a shared host whose speed drifts by 10-40 %
    for half a minute at a time, and by as much between one quarter of an
    hour and the next; no statistic of the op times alone survives that (ten
    30 s runs of dense_chip spread 24 %).  So every untraced op is followed
    by this yardstick — a batched FFT round trip and an intensity sum in
    plain scipy, nothing from ``src/`` — and the gated op time is the ops'
    lower quartile divided by the yardsticks' (ten such runs spread 5 %).
    A PR cannot move the yardstick: it may not edit ``bench/``.
    """
    global _YARDSTICK_TILE
    import numpy as np
    try:
        from scipy import fft
        threads = {"workers": -1}
    except ImportError:  # the product falls back to numpy, so does this
        from numpy import fft
        threads = {}
    if _YARDSTICK_TILE is None:
        rng = np.random.default_rng(0)
        _YARDSTICK_TILE = rng.standard_normal((256, 256)) \
            + 1j * rng.standard_normal((256, 256))
    # A broadcast view: nothing of the batch outlives the call, so the
    # yardstick adds nothing to the peak RSS the ops are charged with.
    batch = np.broadcast_to(_YARDSTICK_TILE, (24, 256, 256))
    begin = time.perf_counter()
    field = fft.ifft2(fft.fft2(batch, **threads), **threads)
    (field.real ** 2 + field.imag ** 2).sum(axis=0)
    return time.perf_counter() - begin


@dataclass
class Context:
    """What a workload child was asked to do."""

    seed: int
    workdir: str
    smoke: bool = False


@dataclass
class Budget:
    """How long a phase runs: a fixed op count, or a wall-clock box."""

    ops: Optional[int] = None
    seconds: Optional[float] = None
    min_ops: int = 3

    def more(self, done: int, started: float) -> bool:
        if self.seconds is None:
            return done < self.ops
        return done < self.min_ops or \
            time.perf_counter() - started < self.seconds


@dataclass
class Phase:
    """The samples of one timed phase."""

    wall_s: List[float]
    outputs: List[object]      # output digest / CD matrix, or OpFailure
    keys: List[object]         # which reference each output answers to
    #: Untraced ops run alternately with the traced ones (same inputs, same
    #: minute): the denominator of the tracing-overhead ratio.
    paired_wall_s: Sequence[float] = ()
    #: One :func:`yardstick` reading after each untraced op, and the CPU
    #: seconds and minor faults they cost between them (not the ops').
    yardstick_s: Sequence[float] = ()
    yardstick_usage: Optional[Dict[str, float]] = None


class OpFailure:
    """An operation that raised, exited non-zero or never completed."""

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __repr__(self) -> str:
        return f"OpFailure({self.reason!r})"


def image_digest(image) -> str:
    """sha256 over the stitched aerial and resist rasters (shape + bytes)."""
    import numpy as np

    digest = hashlib.sha256()
    for array in (image.aerial, image.resist):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.shape}|{array.dtype.str}|".encode("ascii"))
        digest.update(array)  # buffer protocol: hashed in place, no copy
    return digest.hexdigest()


def cd_matrix(outcome, focus_nm, dose) -> List[List[float]]:
    """A sweep outcome's CD matrix in the report's row/column order."""
    matrix = outcome.window.cd_matrix()
    return [[matrix[float(focus)][float(value)] for value in dose]
            for focus in focus_nm]


def count_failures(outputs: Sequence[object], keys: Sequence[object],
                   reference: Dict[object, object]) -> List[str]:
    """One line per failed operation: it raised, or its output is not
    bit-for-bit the reference.  Pure, so the accounting itself is tested."""
    failures = []
    for index, (output, key) in enumerate(zip(outputs, keys)):
        if isinstance(output, OpFailure):
            failures.append(f"op {index}: {output.reason}")
        elif output != reference[key]:
            failures.append(f"op {index}: output differs from the reference")
    return failures


def scrubbed_env() -> Dict[str, str]:
    """The environment product subprocesses get: no ``REPRO_*`` overrides
    (users' defaults are what is measured) and ``src`` importable."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + inherited if inherited else "")
    return env


class Workload:
    """Base: a sequential closed loop of one kind of operation."""

    name = ""
    ops = 0                    # fixed op count of a full run
    traced_ops = TRACED_OPS
    #: probes whose absence makes ``engine.pipeline_self_s`` meaningless
    pipeline_probes: Sequence[str] = ()
    #: follow each traced op with its untraced twin (pointless where the
    #: traced op *is* the untraced one plus client-side spans)
    pair_traced = True

    def __init__(self, context: Context) -> None:
        self.context = context
        self.sizes = fixtures.SMOKE if context.smoke else fixtures.FULL
        self.optics = fixtures.bench_optics()
        self.tracer = probes.Tracer()
        self.tracer.enabled = False  # only traced phases record spans
        self.probes = probes.Probes()
        #: ``CacheStats`` / ``TileCacheStats`` counter deltas, one per traced op.
        self.bank_deltas: List[Dict[str, int]] = []
        self.tile_deltas: List[Dict[str, int]] = []
        #: Outputs of probed trips run apart from the phases (same reference).
        self.extra_outputs: List[object] = []
        self._op_index = 0

    # -- lifecycle ------------------------------------------------------ #
    def setup(self) -> None:
        """Fixtures, caches primed, servers started — until the first op."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process the workload started."""

    def live_pids(self) -> Sequence[int]:
        """Long-lived product processes whose CPU time counts as the op's."""
        return ()

    # -- the untraced operation ---------------------------------------- #
    def before_op(self) -> None:
        """Untimed preparation of one op (fresh directories, cold caches)."""

    def op_key(self):
        """Which reference the next op's output answers to."""
        return None

    def op(self):
        raise NotImplementedError

    def after_op(self) -> None:
        """Untimed clean-up of one op."""

    def reference(self, keys: Sequence[object]) -> Dict[object, object]:
        """Expected output per key, by the plainest path of this commit."""
        raise NotImplementedError

    def area_um2(self) -> float:
        """Imaged area x focus conditions of one op."""
        raise NotImplementedError

    # -- the traced operation ------------------------------------------ #
    def attach_probes(self) -> None:
        """Build the probes the traced trip uses (failures are recorded)."""

    def traced_op(self):
        """The same trip one level down; falls back to the untraced op."""
        return self.op()

    def layer_extras(self) -> Dict[str, Optional[float]]:
        """Layer metrics measured apart from the traced ops."""
        return {}

    # -- phases --------------------------------------------------------- #
    def run_phase(self, budget: Budget, traced: bool = False) -> Phase:
        walls, paired, outputs, keys, yardsticks = [], [], [], [], []
        usage = {"user_s": 0.0, "sys_s": 0.0, "minor_faults": 0.0}
        started = time.perf_counter()
        while budget.more(len(walls), started):
            keys.append(self.op_key())
            wall, output = self._timed_op(traced)
            walls.append(wall)
            outputs.append(output)
            if not traced:
                before = resource.getrusage(resource.RUSAGE_SELF)
                yardsticks.append(yardstick())
                after = resource.getrusage(resource.RUSAGE_SELF)
                usage["user_s"] += after.ru_utime - before.ru_utime
                usage["sys_s"] += after.ru_stime - before.ru_stime
                usage["minor_faults"] += after.ru_minflt - before.ru_minflt
            elif self.pair_traced:
                # The untraced twin of the op just traced.
                keys.append(self.op_key())
                wall, output = self._timed_op(False)
                paired.append(wall)
                outputs.append(output)
        return Phase(walls, outputs, keys, paired_wall_s=paired,
                     yardstick_s=yardsticks, yardstick_usage=usage)

    def _timed_op(self, traced: bool):
        """One op between its untimed hooks -> (wall seconds, output)."""
        self.before_op()
        self.tracer.enabled = traced
        begin = time.perf_counter()
        try:
            if traced:
                with self.tracer.span("op", op=self._op_index):
                    result = self.traced_op()
            else:
                result = self.op()
            wall = time.perf_counter() - begin
            output = self.digest(result)
        except Exception as exc:  # noqa: BLE001 - an op failing is data
            wall = time.perf_counter() - begin
            output = OpFailure(f"{type(exc).__name__}: {exc}")
        self.tracer.enabled = False
        self._op_index += 1
        self.after_op()
        return wall, output

    def digest(self, result):
        return image_digest(result)


# --------------------------------------------------------------------------- #
# imaging workloads
# --------------------------------------------------------------------------- #
class _EngineTrip:
    """Shared by the in-process imaging workloads: a probed engine build."""

    def attach_probes(self) -> None:
        tracer, attach = self.tracer, self.probes.attach
        self.fft_probe = attach("fft", lambda: probes.make_fft_probe(tracer))
        self.bank_probe = attach("bank",
                                 lambda: probes.make_bank_probe(tracer))
        self.engine_cls = attach("engine",
                                 lambda: probes.make_engine_class(tracer))

    def build_engine(self, tile_cache=None):
        from repro.engine import ExecutionEngine, default_kernel_cache

        kwargs = {}
        if self.fft_probe is not None:
            kwargs["fft_backend"] = self.fft_probe
        if self.bank_probe is not None:
            kwargs["cache"] = self.bank_probe
        if tile_cache is not None:
            kwargs["tile_cache"] = tile_cache
        engine_cls = self.engine_cls or ExecutionEngine
        before = dataclasses.asdict(default_kernel_cache().stats)
        with self.tracer.span("engine.build"):
            engine = engine_cls.for_optics(self.optics, **kwargs)
        after = dataclasses.asdict(default_kernel_cache().stats)
        self.bank_deltas.append({key: after[key] - before[key]
                                 for key in after})
        self.probe_develop(engine)
        return engine

    def probe_develop(self, engine) -> None:
        develop = self.probes.attach("develop", lambda: probes.DevelopProbe(
            self.tracer, engine.resist_model))
        if develop is not None:
            engine.resist_model = develop


class DenseChip(_EngineTrip, Workload):
    """Non-repeating 1024x1024 raster: FFT and batched SOCS do nearly all the
    work; layout readers, tile cache, sweep and service do none."""

    name = "dense_chip"
    ops = 25
    num_workers = 1
    pipeline_probes = ("engine", "develop")

    def setup(self) -> None:
        import repro.api as api

        self.api = api
        self.raster = fixtures.dense_raster(self.context.seed,
                                            self.sizes.raster_px, self.optics)
        self.op()  # builds the kernel bank, warms the FFT plans

    def op(self):
        return self.api.image_layout(self.raster, self.optics,
                                     num_workers=self.num_workers)

    def reference(self, keys):
        from repro.backend import ComputeConfig

        image = self.api.image_layout(
            self.raster, self.optics, num_workers=1,
            compute=ComputeConfig(tile_cache=False))
        return {None: image_digest(image)}

    def area_um2(self) -> float:
        side_um = self.sizes.raster_px * self.optics.pixel_size_nm / 1000.0
        return side_um * side_um

    def traced_op(self):
        engine = self.build_engine()
        with self.tracer.span("engine.image_layout"):
            return engine.image_layout(self.raster)

    def layer_extras(self):
        from repro.backend import ComputeConfig

        begin = time.perf_counter()
        self.api.image_layout(self.raster, self.optics,
                              compute=ComputeConfig(fft_workers=1))
        return {"engine.serial_1thread_op_s": time.perf_counter() - begin}


class DenseChipPool2(DenseChip):
    """Same raster sharded over 2 worker processes: the FFT work plus pool
    start, shard pickling and scheduling."""

    name = "dense_chip_pool2"
    ops = 20
    num_workers = 2

    def attach_probes(self) -> None:
        self.executor_cls = self.probes.attach(
            "engine", lambda: probes.make_executor_class(self.tracer))
        # The transforms run in the pool's worker processes, where a probe
        # handed to this process cannot listen.
        self.probes.detached["fft"] = "FFTs run in pool worker processes"
        self.probes.detached["bank"] = \
            "ShardedExecutor resolves its kernel cache itself"

    def traced_op(self):
        from repro.engine import EngineSpec, ShardedExecutor

        executor_cls = self.executor_cls or ShardedExecutor
        with self.tracer.span("engine.build"):
            spec = EngineSpec(config=self.optics)
            executor = executor_cls(num_workers=self.num_workers)
            self.probe_develop(executor.warm(spec))
        try:
            with self.tracer.span("engine.image_layout"):
                return executor.image_layout(spec, self.raster)
        finally:
            with self.tracer.span("engine.pool_close"):
                executor.close()

    def layer_extras(self):
        import numpy as np
        from repro.engine import EngineSpec, ShardedExecutor, extract_tiles

        spec = EngineSpec(config=self.optics)
        serial = []
        for _ in range(9):
            begin = time.perf_counter()
            self.api.image_layout(self.raster, self.optics)
            serial.append(time.perf_counter() - begin)
        with ShardedExecutor(num_workers=self.num_workers) as executor:
            engine = executor.warm(spec)
            tiling = engine.resolve_tiling(None, None, None)
            tiles, _ = extract_tiles(
                engine.precision.as_real(self.raster), tiling)
            pooled = []
            for _ in range(3):
                begin = time.perf_counter()
                aerial = executor.aerial_batch(spec, tiles)
                pooled.append(time.perf_counter() - begin)
        return {
            "engine.serial_op_s": probes.median(serial),
            # first call starts the pool and warms its workers
            "engine.pool_spinup_s": pooled[0] - probes.median(pooled[1:]),
            # computed, not measured: tile bytes out + aerial bytes back
            "engine.pool_ship_bytes": float(np.asarray(tiles).nbytes
                                            + np.asarray(aerial).nbytes),
        }


class GdsRepeatCold(_EngineTrip, Workload):
    """Hierarchical .gds, about half of the tiles unique, tile cache empty at
    each op: GDS parse, window rasterise, digests, cache inserts, stitch."""

    name = "gds_repeat_cold"
    ops = 15
    pipeline_probes = ("reader", "tile_cache", "engine", "develop")
    warm = False

    def setup(self) -> None:
        import repro.api as api
        from repro import engine
        from repro.backend import ComputeConfig

        self.api, self.engine_module = api, engine
        self.compute = ComputeConfig(tile_cache=True)
        cells = self.sizes.repeat_cells
        self.path = os.path.join(self.context.workdir, f"chip{cells}.gds")
        self.gds_bytes = fixtures.write_chip(self.path, cells,
                                             self.context.seed, self.optics)
        engine.configure_default_tile_cache()
        if self.warm:
            self.op()  # builds the bank and primes the cache
            self.check_share()
        else:
            # Only the kernel bank and the imports are warmed: a full-chip
            # op in a fresh process is the most stall-prone second of the
            # whole run, and `setup_s` has no use for it here.
            import numpy as np
            tile = self.optics.tile_size_px
            api.image_layout(np.zeros((tile, tile)), self.optics)

    def check_share(self) -> None:
        """Refuse a chip that does not deduplicate (counts of the last op)."""
        stats = self.engine_module.default_tile_cache().stats
        # A 4x4 smoke chip is nearly all band edges: only the full-size chip
        # is built to land in range.  (No tiles: the op itself failed.)
        if stats.tiles and not self.context.smoke:
            fixtures.check_unique_share(stats.misses, stats.tiles)

    def before_op(self) -> None:
        if not self.warm:
            self.engine_module.configure_default_tile_cache()

    def after_op(self) -> None:
        if not self.warm:
            self.check_share()

    def op(self):
        return self.api.image_layout(self.path, self.optics,
                                     compute=self.compute)

    def reference(self, keys):
        from repro.backend import ComputeConfig

        image = self.api.image_layout(
            self.path, self.optics, num_workers=1,
            compute=ComputeConfig(tile_cache=False))
        return {None: image_digest(image)}

    def area_um2(self) -> float:
        side_um = self.sizes.repeat_cells * fixtures.tile_core_px(
            self.optics) * self.optics.pixel_size_nm / 1000.0
        return side_um * side_um

    def traced_op(self):
        from repro.layout import load_layout_source

        tracer, attach = self.tracer, self.probes.attach
        with tracer.span("layout.load"):
            reader = load_layout_source(self.path, self.optics.pixel_size_nm)
        cache = self.engine_module.default_tile_cache()
        # `is not None`, not `or`: an empty cache (probe) is falsy.
        probed = attach("reader", lambda: probes.ReaderProbe(tracer, reader))
        reader = probed if probed is not None else reader
        probed = attach("tile_cache", lambda: probes.make_tile_cache_probe(
            tracer, cache))
        cache = probed if probed is not None else cache
        engine = self.build_engine(tile_cache=cache)
        stats = self.engine_module.default_tile_cache().stats
        before = dataclasses.asdict(stats)
        with tracer.span("engine.image_layout"):
            image = engine.image_layout(reader)
        after = dataclasses.asdict(stats)
        self.tile_deltas.append({key: after[key] - before[key]
                                 for key in after})
        return image

    def layer_extras(self):
        from repro.engine import TilingSpec, plan_tiles, tile_digest
        from repro.layout import load_layout_source

        reader = load_layout_source(self.path, self.optics.pixel_size_nm)
        tile = self.optics.tile_size_px
        guard = (tile - fixtures.tile_core_px(self.optics)) // 2
        tiling = TilingSpec(tile_px=tile, guard_px=guard)
        windows = [reader.read_window(place.row - guard, place.col - guard,
                                      tile, tile)
                   for place in plan_tiles(*reader.shape, tiling)]
        begin = time.perf_counter()
        for window in windows:
            tile_digest(window)
        return {"engine.tile_digest_s": time.perf_counter() - begin,
                "layout.gds_bytes": float(self.gds_bytes)}


class GdsRepeatWarm(GdsRepeatCold):
    """Same .gds with the tile cache primed, every tile a hit: zero FFT, only
    reader, digests, cache reads, stitch and develop."""

    name = "gds_repeat_warm"
    ops = 25
    warm = True


# --------------------------------------------------------------------------- #
# campaign workloads
# --------------------------------------------------------------------------- #
def _float_list(values) -> str:
    return ",".join(repr(float(value)) for value in values)


class CampaignCli(Workload):
    """Cold `repro sweep-window` + `campaign-report` subprocesses on a .gds:
    interpreter start, kernel-bank builds and disk writes, pool start, store
    persist, report render."""

    name = "campaign_cli"
    ops = 6
    traced_ops = 2
    pair_traced = False

    def setup(self) -> None:
        cells = self.sizes.campaign_cells
        self.path = os.path.join(self.context.workdir, f"chip{cells}.gds")
        self.gds_bytes = fixtures.write_chip(self.path, cells,
                                             self.context.seed, self.optics)
        self.env = scrubbed_env()
        self.store_bytes: Optional[float] = None

    def before_op(self) -> None:
        self.op_dir = os.path.join(self.context.workdir,
                                   f"cli-op-{self._op_index}")
        os.makedirs(self.op_dir)

    def after_op(self) -> None:
        shutil.rmtree(self.op_dir, ignore_errors=True)

    def _cli(self, *arguments: str) -> str:
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *arguments], env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=self.context.workdir)
        if done.returncode != 0:
            raise RuntimeError(
                f"repro {arguments[0]} exited {done.returncode}: "
                f"{done.stderr.strip()[-300:]}")
        return done.stdout

    def sweep_arguments(self, store: str, cache: str) -> List[str]:
        return ["sweep-window", "--input", self.path, "--tile-size",
                str(self.optics.tile_size_px), "--pixel-size-nm",
                repr(self.optics.pixel_size_nm),
                f"--focus={_float_list(self.sizes.focus_nm)}",
                "--dose", _float_list(self.sizes.dose),
                "--store", store, "--cache-dir", cache]

    def op(self):
        store = os.path.join(self.op_dir, "store")
        cache = os.path.join(self.op_dir, "kernels")
        with self.tracer.span("cli.sweep_window"):
            self._cli(*self.sweep_arguments(store, cache))
        with self.tracer.span("cli.campaign_report"):
            report = self._cli("campaign-report", "--store", store,
                               "--format", "json")
        self.store_bytes = float(sum(
            os.path.getsize(os.path.join(store, entry))
            for entry in os.listdir(store)))
        return json.loads(report)

    def digest(self, result):
        if not result["progress"]["complete"]:
            return OpFailure("campaign report is incomplete")
        return result["cd_matrix"]

    def reference(self, keys):
        import repro.api as api
        from repro.backend import ComputeConfig

        outcome = api.sweep_window(
            self.path, self.optics, focus_nm=self.sizes.focus_nm,
            dose=self.sizes.dose, num_workers=1,
            compute=ComputeConfig(tile_cache=False))
        return {None: cd_matrix(outcome, self.sizes.focus_nm,
                                self.sizes.dose)}

    def area_um2(self) -> float:
        side_um = self.sizes.campaign_cells * fixtures.tile_core_px(
            self.optics) * self.optics.pixel_size_nm / 1000.0
        return side_um * side_um * len(self.sizes.focus_nm)

    def layer_extras(self):
        extras: Dict[str, Optional[float]] = {
            "layout.gds_bytes": float(self.gds_bytes),
            "sweep.store_bytes": self.store_bytes,
        }
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"],
                       env=self.env, check=True)
        extras["cli.import_s"] = time.perf_counter() - begin
        extras.update(self._sweep_one_level_down())
        return extras

    def _sweep_one_level_down(self) -> Dict[str, Optional[float]]:
        """The CLI's campaign in-process, with a probed store and progress
        callback, then the report loaded and rendered by the public API."""
        import repro.api as api
        from repro.engine import ShardedExecutor, available_workers
        from repro.layout import load_layout_source
        from repro.sweep import FocusExposureGrid, ProcessWindowSweep
        from repro.sweep.report import (
            render_campaign_report_html,
            render_campaign_report_json,
        )

        tracer = probes.Tracer()
        root = os.path.join(self.context.workdir, "sweep-probe")
        store_dir = os.path.join(root, "store")
        store = self.probes.attach(
            "store", lambda: probes.make_store_probe(tracer, store_dir))
        if store is None:
            return {}
        ticks: List[float] = []
        grid = FocusExposureGrid.from_sequences(self.sizes.focus_nm,
                                                self.sizes.dose)
        cache_dir = os.path.join(root, "kernels")
        try:
            with ShardedExecutor(num_workers=available_workers(),
                                 cache_dir=cache_dir) as executor:
                sweep = ProcessWindowSweep(self.optics, executor=executor)
                outcome = sweep.run(
                    load_layout_source(self.path, self.optics.pixel_size_nm),
                    grid=grid, store=store, progress=lambda *_:
                    ticks.append(time.perf_counter()))
            # Verified against the reference with the timed ops' outputs.
            self.extra_outputs.append(
                cd_matrix(outcome, self.sizes.focus_nm, self.sizes.dose))
            begin = time.perf_counter()
            report = api.open_campaign(store_dir)
            loaded = time.perf_counter()
            render_campaign_report_json(report)
            as_json = time.perf_counter()
            render_campaign_report_html(report)
            as_html = time.perf_counter()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        durations: Dict[str, List[float]] = {}
        for span in tracer.spans:
            durations.setdefault(span["name"], []).append(
                span["end"] - span["start"])
        gaps = [later - earlier for earlier, later in zip(ticks, ticks[1:])]
        return {
            "sweep.store_begin_s": probes.median(
                durations.get("sweep.store_begin", [])),
            "sweep.store_record_s": probes.median(
                durations.get("sweep.store_record", [])),
            "sweep.condition_gap_s": probes.median(gaps),
            "sweep.report_load_s": loaded - begin,
            "sweep.report_render_json_s": as_json - loaded,
            "sweep.report_render_html_s": as_html - as_json,
        }


class ServeCampaigns(Workload):
    """One closed-loop client submits/waits/reports 3x3 campaigns against one
    `repro serve` child: warm kernel-bank reads, the service task queue, HTTP
    and the client's status-poll granularity."""

    name = "serve_campaigns"
    ops = 40
    traced_ops = 10
    # The traced op is the untraced one plus client-side spans.
    pair_traced = False

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        self.seeds = fixtures.service_seeds(self.context.seed)
        self.statuses: List[Dict[str, object]] = []
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        self.url = f"http://127.0.0.1:{port}"
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--data-dir",
             os.path.join(self.context.workdir, "service"), "--port",
             str(port)],
            env=scrubbed_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, cwd=self.context.workdir)
        self.client = ServiceClient(self.url)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.health()
                break
            except OSError:
                if self.server.poll() is not None:
                    raise RuntimeError(
                        f"repro serve exited {self.server.returncode}")
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve never answered /healthz")
                time.sleep(0.05)
        self.op()  # builds the three focus banks

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None and server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()

    def live_pids(self) -> Sequence[int]:
        return (self.server.pid,) if self.server.poll() is None else ()

    def op_key(self) -> int:
        return self.seeds[self._op_index % len(self.seeds)]

    def request(self, seed: int) -> Dict[str, object]:
        side = self.sizes.service_px
        return {
            "layout": {"kind": "synthetic", "height_px": side,
                       "width_px": side, "family": "B2m", "seed": seed},
            "optics": {"tile_size_px": self.optics.tile_size_px,
                       "pixel_size_nm": self.optics.pixel_size_nm},
            "grid": {"focus_nm": list(self.sizes.focus_nm),
                     "dose": list(self.sizes.dose)},
        }

    def op(self):
        """submit -> wait -> report, with the product client's defaults."""
        job = self.client.submit(self.request(self.op_key()))
        submitted = time.time()
        status = self.client.wait(job["id"])
        noticed = time.time()
        if status["state"] != "completed":
            raise RuntimeError(
                f"campaign {job['id']} ended {status['state']}: "
                f"{status.get('error')}")
        # How long the finished job sat unnoticed until the next status poll.
        self._lag = max(0.0, noticed - max(status["finished_at"], submitted))
        self._status = status
        return self.client.report(job["id"], "json")

    def digest(self, result):
        return result["cd_matrix"]

    def _timed_op(self, traced: bool):
        self._lag, self._status = 0.0, None
        index = self._op_index
        wall, output = super()._timed_op(traced)
        if self._status is not None:
            self.statuses.append(dict(self._status, op=index,
                                      client_wall_s=wall))
        # The op's wall excludes the polling lag: with a 0.2 s poll it is a
        # step function of the job time, and a 10 % slower host would read
        # as +32 %.  The lag is reported as service.wait_overhead_s.
        return wall - self._lag, output

    def attach_probes(self) -> None:
        client_cls = self.probes.attach(
            "client", lambda: probes.make_client_class(self.tracer))
        if client_cls is not None:
            self.client = client_cls(self.url)

    def run_phase(self, budget: Budget, traced: bool = False) -> Phase:
        self.statuses = []
        queue_before = self.client.health()["queue"]
        phase = super().run_phase(budget, traced)
        queue_after = self.client.health()["queue"]
        self.queue_tasks_per_op = (
            queue_after["submitted"] - queue_before["submitted"]) \
            / len(phase.wall_s)
        return phase

    def reference(self, keys):
        import repro.api as api
        from repro.backend import ComputeConfig

        expected = {}
        for seed in sorted(set(keys)):
            raster = fixtures.dense_raster(seed, self.sizes.service_px,
                                           self.optics)
            outcome = api.sweep_window(
                raster, self.optics, focus_nm=self.sizes.focus_nm,
                dose=self.sizes.dose, num_workers=1,
                compute=ComputeConfig(tile_cache=False))
            expected[seed] = cd_matrix(outcome, self.sizes.focus_nm,
                                       self.sizes.dose)
        return expected

    def area_um2(self) -> float:
        side_um = self.sizes.service_px * self.optics.pixel_size_nm / 1000.0
        return side_um * side_um * len(self.sizes.focus_nm)

    def layer_extras(self):
        rtts = []
        for _ in range(5):
            begin = time.perf_counter()
            self.client.health()
            rtts.append(time.perf_counter() - begin)
        return {"service.healthz_rtt_s": probes.median(rtts),
                "service.queue_tasks": self.queue_tasks_per_op}


WORKLOADS: Dict[str, Callable[[Context], Workload]] = {
    cls.name: cls for cls in (DenseChip, DenseChipPool2, GdsRepeatCold,
                              GdsRepeatWarm, CampaignCli, ServeCampaigns)}
