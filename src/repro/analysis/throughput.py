"""Throughput measurement (Fig. 5): processed mask area per second for each engine.

The paper reports µm²/s for TEMPO, DOINN, Nitho and the reference rigorous
simulator.  Here every engine exposes a callable that images one mask tile;
we time repeated calls and convert to area throughput using the tile's
physical extent.

Beyond wall-clock, :func:`measure_peak_memory` measures a callable's peak
RSS in a fresh subprocess — the out-of-core streaming benchmark uses it to
record the in-memory vs streaming peak-RAM ratio as part of the repo's perf
trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ThroughputResult:
    """Throughput of one engine."""

    name: str
    tiles_per_second: float
    um2_per_second: float
    seconds_per_tile: float


def tile_area_um2(tile_size_px: int, pixel_size_nm: float) -> float:
    """Physical area of one tile in µm²."""
    if tile_size_px <= 0 or pixel_size_nm <= 0:
        raise ValueError("tile size and pixel size must be positive")
    extent_um = tile_size_px * pixel_size_nm / 1000.0
    return extent_um * extent_um


def measure_throughput(name: str, run_tile: Callable[[np.ndarray], np.ndarray],
                       masks: Sequence[np.ndarray], pixel_size_nm: float,
                       repeats: int = 1, warmup: int = 1) -> ThroughputResult:
    """Time ``run_tile`` over ``masks`` and convert to µm²/s.

    Parameters
    ----------
    run_tile:
        Callable imaging a single mask tile (e.g. ``model.predict_aerial``).
    repeats:
        Number of passes over the mask list included in the timing.
    warmup:
        Untimed warm-up calls (first-call caches, e.g. kernel export).
    """
    masks = [np.asarray(mask, dtype=float) for mask in masks]
    if not masks:
        raise ValueError("need at least one mask to measure throughput")
    for index in range(min(warmup, len(masks))):
        run_tile(masks[index])

    start = time.perf_counter()
    tiles = 0
    for _ in range(max(repeats, 1)):
        for mask in masks:
            run_tile(mask)
            tiles += 1
    elapsed = time.perf_counter() - start
    elapsed = max(elapsed, 1e-9)

    area = tile_area_um2(masks[0].shape[-1], pixel_size_nm)
    tiles_per_second = tiles / elapsed
    return ThroughputResult(name=name,
                            tiles_per_second=tiles_per_second,
                            um2_per_second=tiles_per_second * area,
                            seconds_per_tile=elapsed / tiles)


def measure_batched_throughput(name: str,
                               run_batch: Callable[[np.ndarray], np.ndarray],
                               masks: Sequence[np.ndarray], pixel_size_nm: float,
                               batch_size: int = 16, repeats: int = 1,
                               warmup: int = 1) -> ThroughputResult:
    """Time a batched engine (``(B, H, W) -> (B, H, W)``) and convert to µm²/s.

    The mask list is stacked into ``batch_size`` chunks outside the timed
    region; ``run_batch`` is called once per chunk, so the measurement
    captures the vectorised hot path of
    :class:`~repro.engine.execution.ExecutionEngine` rather than per-tile
    Python dispatch.
    """
    if len(masks) == 0:
        raise ValueError("need a non-empty (B, H, W) mask set")
    stacked = np.stack([np.asarray(mask, dtype=float) for mask in masks], axis=0)
    if stacked.ndim != 3:
        raise ValueError("need a non-empty (B, H, W) mask set")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    batches = [stacked[start:start + batch_size]
               for start in range(0, len(stacked), batch_size)]
    for _ in range(max(warmup, 0)):
        run_batch(batches[0])

    start_time = time.perf_counter()
    tiles = 0
    for _ in range(max(repeats, 1)):
        for batch in batches:
            run_batch(batch)
            tiles += len(batch)
    elapsed = max(time.perf_counter() - start_time, 1e-9)

    area = tile_area_um2(stacked.shape[-1], pixel_size_nm)
    tiles_per_second = tiles / elapsed
    return ThroughputResult(name=name,
                            tiles_per_second=tiles_per_second,
                            um2_per_second=tiles_per_second * area,
                            seconds_per_tile=elapsed / tiles)


@dataclass(frozen=True)
class BackendMatrixEntry:
    """One (backend x precision) cell of the compute-policy sweep."""

    backend: str
    precision: str
    result: ThroughputResult
    #: Throughput ratio against the seed-equivalent baseline (numpy backend,
    #: complex128, full-spectrum transforms); 1.0 is "no better than seed".
    speedup_vs_seed: float

    def to_record(self, op: str, shape: Tuple[int, int]) -> Dict[str, object]:
        """Machine-readable benchmark record (the ``BENCH_*.json`` schema)."""
        return {
            "op": op,
            "shape": list(shape),
            "backend": self.backend,
            "precision": self.precision,
            "seconds": self.result.seconds_per_tile,
            "um2_per_second": self.result.um2_per_second,
            "speedup": self.speedup_vs_seed,
        }


def measure_backend_matrix(kernels: np.ndarray, masks: Sequence[np.ndarray],
                           pixel_size_nm: float,
                           combos: Optional[Sequence[Tuple[str, str]]] = None,
                           repeats: int = 1,
                           *,
                           baseline_run: Callable[[np.ndarray], np.ndarray],
                           baseline_name: str,
                           ) -> Tuple[Dict[Tuple[str, str], BackendMatrixEntry],
                                      ThroughputResult]:
    """Image the same tile batch under every (backend, precision) combination.

    Returns the matrix plus the measurement of ``baseline_run`` (labelled
    ``baseline_name``) against which each entry's ``speedup_vs_seed`` is
    computed — the backend benchmark passes the literal seed pipeline, so
    the recorded speedups are attributable against the pre-backend-layer
    code.  ``combos`` defaults to every backend available on this machine
    crossed with float64 and float32.
    """
    from ..backend import available_backends
    from ..engine.batched import batched_aerial_from_kernels

    if combos is None:
        combos = [(backend, precision)
                  for backend in available_backends()
                  for precision in ("float64", "float32")]

    baseline = measure_batched_throughput(
        baseline_name, baseline_run, masks, pixel_size_nm, batch_size=len(masks), repeats=repeats)

    matrix: Dict[Tuple[str, str], BackendMatrixEntry] = {}
    for backend, precision in combos:
        result = measure_batched_throughput(
            f"{backend}/{precision}",
            lambda batch, b=backend, p=precision: batched_aerial_from_kernels(
                batch, kernels, backend=b, precision=p),
            masks, pixel_size_nm, batch_size=len(masks), repeats=repeats)
        speedup_ratio = (result.um2_per_second / baseline.um2_per_second
                         if baseline.um2_per_second > 0 else float("inf"))
        matrix[(backend, precision)] = BackendMatrixEntry(
            backend=backend, precision=precision, result=result,
            speedup_vs_seed=speedup_ratio)
    return matrix, baseline


@dataclass(frozen=True)
class PeakMemoryResult:
    """Peak RSS high-water + wall-clock of one measured callable."""

    peak_bytes: int
    elapsed_s: float
    #: ``True`` when the callable ran in a fresh subprocess (the reliable
    #: mode: the OS high-water starts from a clean interpreter).  ``False``
    #: marks the in-process fallback, whose high-water includes everything
    #: the process allocated *before* the measurement — an upper bound only.
    in_subprocess: bool

    @property
    def peak_mib(self) -> float:
        return self.peak_bytes / 2 ** 20


def _peak_rss_bytes() -> int:
    """This process's lifetime peak RSS (Linux reports KiB, macOS bytes)."""
    import resource
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak if sys.platform == "darwin" else peak * 1024)


def _peak_memory_child(conn, fn, args, kwargs) -> None:
    start = time.perf_counter()
    fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    conn.send((_peak_rss_bytes(), elapsed))
    conn.close()


def measure_peak_memory(fn: Callable, *args, mp_context=None,
                        **kwargs) -> PeakMemoryResult:
    """Run ``fn(*args, **kwargs)`` in a fresh subprocess; report its peak RSS.

    The OS only exposes a *lifetime* high-water mark (``ru_maxrss``), so a
    trustworthy peak needs a process whose life IS the measurement — this is
    what lets the streaming benchmark honestly compare in-memory vs
    streaming peaks instead of measuring whichever ran first.  ``fn`` and
    its arguments must be picklable (module-level functions); the return
    value is discarded so gigabyte results are not shipped back through the
    pipe.  Platforms that forbid subprocesses fall back to an in-process
    measurement flagged ``in_subprocess=False``.

    ``mp_context`` selects the :mod:`multiprocessing` start method (default:
    the platform default — fork on Linux); pass ``"spawn"`` to prove a
    measurement free of inherited pages.
    """
    import multiprocessing

    context = multiprocessing.get_context(mp_context) \
        if mp_context is None or isinstance(mp_context, str) else mp_context
    try:
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(target=_peak_memory_child,
                                  args=(child_conn, fn, args, kwargs))
        process.start()
        child_conn.close()
        try:
            payload = parent_conn.recv()
        except EOFError:
            process.join()
            raise RuntimeError(
                f"peak-memory subprocess died with exit code "
                f"{process.exitcode} before reporting")
        process.join()
        peak_bytes, elapsed = payload
        return PeakMemoryResult(peak_bytes=int(peak_bytes),
                                elapsed_s=float(elapsed), in_subprocess=True)
    except (OSError, PermissionError):
        # Sandboxes may forbid subprocesses; measure in-process.  The
        # high-water then includes prior allocations — documented above.
        start = time.perf_counter()
        fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        return PeakMemoryResult(peak_bytes=_peak_rss_bytes(),
                                elapsed_s=elapsed, in_subprocess=False)


def compare_throughput(engines: Dict[str, Callable[[np.ndarray], np.ndarray]],
                       masks: Sequence[np.ndarray], pixel_size_nm: float,
                       repeats: int = 1,
                       batched_engines: Optional[Dict[str, Callable[[np.ndarray],
                                                                    np.ndarray]]] = None,
                       batch_size: int = 16) -> Dict[str, ThroughputResult]:
    """Measure several engines on the same mask set (the Fig. 5 bar chart).

    ``engines`` map names to per-tile callables; ``batched_engines`` map
    names to whole-batch callables measured via
    :func:`measure_batched_throughput`.
    """
    results = {name: measure_throughput(name, engine, masks, pixel_size_nm,
                                        repeats=repeats)
               for name, engine in engines.items()}
    for name, engine in (batched_engines or {}).items():
        results[name] = measure_batched_throughput(
            name, engine, masks, pixel_size_nm,
            batch_size=batch_size, repeats=repeats)
    return results


def speedup(results: Dict[str, ThroughputResult], fast: str, slow: str) -> float:
    """Throughput ratio ``fast / slow`` (e.g. Nitho vs. the rigorous simulator)."""
    if fast not in results or slow not in results:
        raise KeyError("both engines must be present in the results")
    denominator = results[slow].um2_per_second
    if denominator <= 0:
        return float("inf")
    return results[fast].um2_per_second / denominator
