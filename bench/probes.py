"""Outside-in timing probes and the span arithmetic behind the per-layer table.

Nothing in ``src/`` is instrumented.  Each probe is a thin subclass (or
forwarding wrapper) of a *public* seam — ``FFTBackend``, the ``LayoutReader``
protocol, ``TileResultCache``, ``KernelBankCache``, ``CampaignStore``,
``ExecutionEngine``, ``ShardedExecutor``, ``ServiceClient`` — that records a
span around the call and forwards it unchanged, so the traced trip produces
bit-for-bit the untraced output.

A probe whose seam a later refactor renamed or removed must not take the
benchmark down with it: :func:`attach` turns the failure into a recorded
reason, the workload runs without that probe and the metrics it would have
fed are reported as ``null``.
"""

from __future__ import annotations

import itertools
import math
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
Span = Dict[str, object]  # {"id", "name", "start", "end", "parent", "op"}


class Tracer:
    """In-memory span recorder; one parent stack per thread.

    ``op`` groups the spans of one benchmark operation.  While ``enabled`` is
    false :meth:`span` is a no-op, so primes and warm-ups run through the
    very same probed objects without being counted.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.enabled = True
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[object] = None):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        record: Span = {
            "id": next(self._ids), "name": name, "start": time.perf_counter(),
            "end": None, "parent": parent["id"] if parent else None,
            "op": op if op is not None else (parent["op"] if parent else None),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a named counter (work done, measured where it happens)."""
        if self.enabled:
            with self._lock:
                self.counts[name] = self.counts.get(name, 0.0) + amount


def covered(intervals: Iterable[Tuple[float, float]], low: float,
            high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total, reach = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children may nest, overlap one another (two client threads) or stick out
    past their parent; only the union of their intervals, clipped to the
    parent, is subtracted — so self times never go negative and the self
    times under a root sum to at most the root's duration.
    """
    children: Dict[object, List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"]) - covered(
        children.get(span["id"], ()), span["start"], span["end"])
        for span in spans}


def per_op_totals(spans: Sequence[Span], self_time: bool = False,
                  ) -> Dict[object, Dict[str, float]]:
    """``op -> span name -> seconds`` (total busy time, or self time)."""
    selfs = self_times(spans) if self_time else None
    totals: Dict[object, Dict[str, float]] = {}
    for span in spans:
        seconds = selfs[span["id"]] if self_time \
            else span["end"] - span["start"]
        bucket = totals.setdefault(span["op"], {})
        bucket[span["name"]] = bucket.get(span["name"], 0.0) + seconds
    return totals


def unattributed_share(spans: Sequence[Span], root_name: str = "op") -> float:
    """Share of root-span time that no child span covers, over all roots."""
    selfs = self_times(spans)
    roots = [span for span in spans if span["name"] == root_name]
    total = sum(span["end"] - span["start"] for span in roots)
    return sum(selfs[span["id"]] for span in roots) / total if total else 0.0


def median(values: Sequence[float]) -> Optional[float]:
    """``statistics.median``, or ``None`` when nothing was measured."""
    return statistics.median(values) if values else None


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule), pure Python."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Percentiles a tail may be reported at, highest first — in per-mille, so
#: "ten samples beyond" is integer arithmetic (100 * (1 - 0.9) is 9.999...).
TAIL_PER_MILLE = (999, 990, 950, 900, 750, 500)


def tail_percentile(sample_count: int,
                    beyond: int = 10) -> Optional[float]:
    """The highest percentile with at least ``beyond`` samples past it.

    A p99 of 25 samples is one sample's luck; the rule keeps the reported
    tail backed by ten observations, and says ``None`` when even the median
    is not.
    """
    for per_mille in TAIL_PER_MILLE:
        if sample_count * (1000 - per_mille) >= beyond * 1000:
            return per_mille / 10.0
    return None


# --------------------------------------------------------------------------- #
# attaching
# --------------------------------------------------------------------------- #
class Probes:
    """The probes of one traced workload plus the reasons some are missing."""

    def __init__(self) -> None:
        self.attached: set = set()
        self.detached: Dict[str, str] = {}

    def attach(self, name: str, factory: Callable[[], object]):
        """``factory()`` or ``None`` — a broken seam is recorded, not raised."""
        try:
            probe = factory()
        except (ImportError, AttributeError, TypeError) as exc:
            self.detached[name] = f"{type(exc).__name__}: {exc}"
            return None
        self.attached.add(name)
        return probe


def fft_gflop(shape: Sequence[int], real: bool) -> float:
    """Computed (not measured) GFLOP of one batched 2-D transform.

    The usual radix-2 estimate: ``5 N log2 N`` for a complex transform of
    ``N`` points, half that for a real one, times the batch.
    """
    points = int(shape[-1]) * int(shape[-2])
    batch = 1
    for extent in shape[:-2]:
        batch *= int(extent)
    return (2.5 if real else 5.0) * points * math.log2(points) * batch / 1e9


def make_fft_probe(tracer: Tracer):
    """An ``FFTBackend`` that times every transform and forwards it to the
    backend the product resolves by itself."""
    from repro.backend import FFTBackend, get_backend

    inner = get_backend()

    class FFTProbe(FFTBackend):
        # Same registry name: the tile-cache key and the output metadata
        # must not change because a probe is listening.
        name = inner.name

        def _timed(self, method: str, array, real: bool, shape, *args,
                   **kwargs):
            with tracer.span("backend.fft"):
                result = getattr(inner, method)(array, *args, **kwargs)
            tracer.count("backend.fft_calls")
            tracer.count("backend.fft_gflop", fft_gflop(shape, real))
            return result

        def fft2(self, array, norm=None):
            return self._timed("fft2", array, False, array.shape, norm=norm)

        def ifft2(self, array, norm=None):
            return self._timed("ifft2", array, False, array.shape, norm=norm)

        def rfft2(self, array, norm=None):
            return self._timed("rfft2", array, True, array.shape, norm=norm)

        def irfft2(self, array, s, norm=None):
            shape = tuple(array.shape[:-2]) + tuple(s)
            return self._timed("irfft2", array, True, shape, s=s, norm=norm)

    return FFTProbe()


class ReaderProbe:
    """A forwarding ``LayoutReader``: same windows, each one timed."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner
        for required in ("shape", "read_window", "digest"):
            getattr(inner, required)

    @property
    def shape(self):
        return self._inner.shape

    def read_window(self, row, col, height, width):
        with self._tracer.span("layout.read_window"):
            window = self._inner.read_window(row, col, height, width)
        self._tracer.count("layout.windows")
        return window

    def window_is_empty(self, row, col, height, width):
        with self._tracer.span("layout.window_is_empty"):
            return self._inner.window_is_empty(row, col, height, width)

    def digest(self):
        return self._inner.digest()


def make_tile_cache_probe(tracer: Tracer, inner):
    """A ``TileResultCache`` that times ``image_tile_batch`` and forwards to
    ``inner`` — so the cache the untraced phase primed is the one probed."""
    from repro.engine import TileResultCache

    class TileCacheProbe(TileResultCache):
        def image_tile_batch(self, tiles, digests, image_batch, context):
            with tracer.span("engine.tile_cache"):
                return inner.image_tile_batch(tiles, digests, image_batch,
                                              context)

    return TileCacheProbe()


def make_bank_probe(tracer: Tracer):
    """A ``KernelBankCache`` timing ``get_kernels``, forwarding to the
    process-wide cache the product warms."""
    from repro.engine import KernelBankCache, default_kernel_cache

    inner = default_kernel_cache()

    class BankProbe(KernelBankCache):
        def get_kernels(self, *args, **kwargs):
            with tracer.span("engine.bank_get"):
                return inner.get_kernels(*args, **kwargs)

    return BankProbe()


def make_engine_class(tracer: Tracer):
    """An ``ExecutionEngine`` whose batched imaging call is a span."""
    from repro.engine import ExecutionEngine

    class ProbedEngine(ExecutionEngine):
        def aerial_batch(self, masks, *args, **kwargs):
            with tracer.span("engine.aerial_batch"):
                result = super().aerial_batch(masks, *args, **kwargs)
            tracer.count("engine.tiles_imaged", len(masks))
            return result

    return ProbedEngine


class DevelopProbe:
    """Stands in for an engine's ``resist_model``: ``develop`` is a span."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner
        self.threshold = inner.threshold
        inner.develop  # noqa: B018 - fail at attach time, not mid-op

    def develop(self, aerial):
        with self._tracer.span("engine.develop"):
            return self._inner.develop(aerial)


def make_executor_class(tracer: Tracer):
    """A ``ShardedExecutor`` whose sharded imaging call is a span."""
    from repro.engine import ShardedExecutor

    class ProbedExecutor(ShardedExecutor):
        def aerial_batch(self, spec, masks, *args, **kwargs):
            with tracer.span("engine.aerial_batch"):
                result = super().aerial_batch(spec, masks, *args, **kwargs)
            tracer.count("engine.tiles_imaged", len(masks))
            return result

    return ProbedExecutor


def make_store_probe(tracer: Tracer, root: str):
    """A ``CampaignStore`` timing ``begin`` / ``record`` / ``save_aerial``."""
    from repro.sweep import CampaignStore

    class StoreProbe(CampaignStore):
        def begin(self, *args, **kwargs):
            with tracer.span("sweep.store_begin"):
                return super().begin(*args, **kwargs)

        def record(self, *args, **kwargs):
            with tracer.span("sweep.store_record"):
                return super().record(*args, **kwargs)

        def save_aerial(self, *args, **kwargs):
            with tracer.span("sweep.store_save_aerial"):
                return super().save_aerial(*args, **kwargs)

    return StoreProbe(root)


def make_client_class(tracer: Tracer):
    """A ``ServiceClient`` recording one client-side span per HTTP request."""
    from repro.service.client import ServiceClient

    class ProbedClient(ServiceClient):
        def health(self):
            with tracer.span("service.healthz"):
                return super().health()

        def submit(self, request):
            with tracer.span("service.submit"):
                return super().submit(request)

        def status(self, job_id):
            with tracer.span("service.poll"):
                return super().status(job_id)

        def wait(self, job_id, *args, **kwargs):
            with tracer.span("service.wait"):
                return super().wait(job_id, *args, **kwargs)

        def report(self, job_id, format="json"):  # noqa: A002
            with tracer.span("service.report"):
                return super().report(job_id, format=format)

    return ProbedClient
