"""Content-addressed tile-result cache: image each unique tile once.

Real layouts are overwhelmingly repetitive — instance arrays, standard-cell
rows, vast empty regions — yet the engine would happily image every
guard-banded tile from scratch even when its pixel content is byte-identical
to a tile it imaged a microsecond earlier.  This module memoises *aerial tile
images* by content: a tile's guard-banded pixels are hashed
(:func:`tile_digest`), the digest is combined with everything else that
determines the aerial result — the kernel-bank fingerprint, the FFT backend,
the precision policy and the tile geometry (:class:`TileCacheContext`) — and
the imaged tile's *core* is stored under that key: the ``tile_px - 2 *
guard_px`` square inside the guard band, all a stitch ever copies (198² of a
256² production tile, 61 % of its bytes).  A later tile with the same key is
served from the cache **bit for bit**: per-tile FFT work is independent of
batch composition (pinned since the batching PR), so imaging a deduplicated
sub-batch and scattering the results back is indistinguishable from imaging
the full batch.

Two tiers:

* an in-process LRU tier bounded by ``max_bytes`` (oldest entries evicted
  first, so a huge layout cannot exhaust RAM through its own cache), and
* an optional disk tier (``cache_dir`` or the ``REPRO_TILE_CACHE_DIR``
  environment variable for the default cache) persisting each core as a
  compressed ``.npz`` holding one ``core`` array — the
  :class:`~repro.engine.cache.NpzDiskTier` the kernel-bank cache persists
  through too — so repeated CLI runs and resumed campaigns skip the FFTs
  entirely.  An entry without a ``core`` of the key's shape and dtype is
  an unreadable one: counted, re-imaged and overwritten.

The all-zero fast path never touches either tier: an empty reticle tile
images to exactly zero under every backend and precision (the DFT of an
exactly-zero array is exactly ±0 and ``|0|^2`` is ``+0``), so zero tiles —
:func:`tile_digest` answers :data:`ZERO_TILE_DIGEST` for an all-zero window
instead of hashing it — are all served by one shared zero core.

A repeat op reads only its misses.  The content key digests a window
exactly as the layout reader produced it (its dtype is part of the key;
nothing is cast or copied to hash it), and
:meth:`TileResultCache.image_tile_batch` hands its first-occurrence misses
to the engine's imaging loop (:func:`repro.engine.batched.image_tiles`):
each share of the loop reads its misses' rows straight into its own mask
buffer — the layout pipeline, which keeps a file-backed reader's window
digests (:mod:`repro.engine.streaming`), hands over rows that are read on
that access — and writes each image's core into the entry it becomes,
allocated beforehand on the calling thread.  Nothing batch-sized is stacked
or returned on the way.  Served rows are *references*: a cached entry is
read-only and owned by the cache, so serving it copies nothing until the
stitch writes it into the output raster.

:class:`TileCacheStats` counts every served tile (memory hits, zero hits,
disk loads) and every miss, giving tests and the CLI an observable dedup
rate with zero recomputation.  Each :meth:`TileResultCache.image_tile_batch`
call also returns its own tally, so a caller sharing the cache with other
threads (two campaigns on one service) counts exactly its own tiles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..backend import resolve_precision
from .cache import NpzDiskTier

#: Sentinel digest for an all-zero (empty reticle) guard-banded tile.  Not a
#: hex hash on purpose: zero tiles are served by the constant fast path and
#: must never collide with a content digest.
ZERO_TILE_DIGEST = "zero"

#: Default in-memory budget: ~1700 float64 cores of 198 px (a 256 px tile
#: inside a 29 px guard band) while staying far from typical container
#: limits.
DEFAULT_MAX_BYTES = 512 * 2 ** 20


def tile_digest(tile: np.ndarray) -> str:
    """Content digest of one guard-banded tile (shape + dtype + bytes).

    The one place that says a tile is empty: an all-zero window of any
    shape or dtype digests to :data:`ZERO_TILE_DIGEST` and is never hashed.
    """
    if not tile.any():
        return ZERO_TILE_DIGEST
    tile = np.ascontiguousarray(tile)
    digest = hashlib.sha1(f"{tile.shape}|{tile.dtype.str}|".encode("utf-8"))
    digest.update(tile)  # buffer protocol: hashed in place, no copy
    return digest.hexdigest()


@dataclass(frozen=True)
class TileCacheContext:
    """Everything besides pixel content that determines an aerial tile.

    Two tiles may share identical pixels yet image differently when any of
    these differ, so all of them join the cache key: the kernel-bank
    fingerprint (optics + truncation order + band limiting), the FFT backend
    name, the precision policy name, and the tile geometry.
    """

    kernel_fingerprint: str
    backend: str
    precision: str
    tile_px: int
    guard_px: int

    def key_prefix(self) -> str:
        return (f"{self.kernel_fingerprint}|backend={self.backend}"
                f"|prec={self.precision}|tile={self.tile_px}"
                f"|guard={self.guard_px}|")


@dataclass
class TileCacheStats:
    """Observable counters; ``tiles == hits + zero_hits + disk_loads + misses``."""

    tiles: int = 0
    hits: int = 0
    zero_hits: int = 0
    disk_loads: int = 0
    misses: int = 0
    evictions: int = 0
    #: Unreadable disk entries (torn / truncated ``.npz``, or an array of
    #: the wrong shape or dtype): each one is also counted as a miss,
    #: re-imaged and overwritten.
    disk_errors: int = 0

    def __iadd__(self, other: "TileCacheStats") -> "TileCacheStats":
        """Add ``other``'s counters in place (the object stays the same)."""
        for name, value in dataclasses.asdict(other).items():
            setattr(self, name, getattr(self, name) + value)
        return self


def _decode_core(data, context: TileCacheContext) -> np.ndarray:
    """The owned core a disk entry's ``core`` array holds.  A missing
    ``core``, or one of another shape or dtype, raises (``KeyError`` /
    ``ValueError``), which the disk tier counts as unreadable."""
    core = data["core"]
    side = context.tile_px - 2 * context.guard_px
    dtype = resolve_precision(context.precision).real_dtype
    if core.shape != (side, side) or core.dtype != dtype:
        raise ValueError(f"a {core.dtype} {core.shape} entry where a "
                         f"{dtype} ({side}, {side}) one belongs")
    return np.array(core)


class TileResultCache:
    """Thread-safe content-addressed cache of imaged aerial tile cores.

    Parameters
    ----------
    cache_dir:
        Optional directory for on-disk persistence of imaged cores (created
        on first write).  ``None`` keeps the cache purely in-memory.
    max_bytes:
        In-memory LRU budget.  The newest entry always stays resident even
        when it alone exceeds the budget, so a pathological budget can slow
        the cache down but never break it.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.cache_dir = cache_dir
        self.max_bytes = int(max_bytes)
        self.stats = TileCacheStats()
        self._memory: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._memory_bytes = 0
        self._disk = NpzDiskTier(cache_dir, "tiles")
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # the dedup entry point
    # ------------------------------------------------------------------ #
    def image_tile_batch(self, tiles: Sequence[np.ndarray],
                         digests: Sequence[str],
                         image_batch: Callable[[int, Callable, Callable],
                                               None],
                         context: TileCacheContext,
                         ) -> Tuple[List[np.ndarray], TileCacheStats]:
        """Image a batch through the cache: unique misses only, no scatter.

        ``tiles`` holds the batch's guard-banded windows — an
        ``(N, tile_px, tile_px)`` stack or any sequence of 2-D windows in
        the reader's own dtype — and ``digests`` their :func:`tile_digest`
        values; only the first row of each miss is ever indexed, so a lazy
        sequence that reads a window on access reads just those.
        ``image_batch(count, read, write)`` — the engine's imaging loop,
        :func:`repro.engine.batched.image_tiles` bound to its bank — is
        called **at most once**, for the first-occurrence misses: its
        ``read`` fills a share's mask buffer from those rows and its
        ``write`` copies each core it is handed (the loop images cores)
        into the entry it becomes.
        Every other row is served from the zero fast path, the in-memory
        tier, the disk tier, or its within-batch duplicate.

        Returns ``(cores, tally)``: one ``(core, core)`` core per row
        (``core = tile_px - 2 * guard_px``: the pixels a stitch can copy),
        bit-for-bit that crop of what the loop images for the row — as
        *references*: a read-only cache entry or the shared read-only zero
        core — and this call's own :class:`TileCacheStats`, already added
        to :attr:`stats`.
        """
        if len(digests) != len(tiles):
            raise ValueError(
                f"{len(digests)} digests for {len(tiles)} tiles")
        real_dtype = resolve_precision(context.precision).real_dtype
        side = context.tile_px - 2 * context.guard_px
        # A zero-stride view: every empty tile of the batch reads the same
        # eight bytes, and nothing core-sized is allocated for them.
        zero_core = np.broadcast_to(real_dtype.type(0), (side, side))
        prefix = context.key_prefix()
        tally = TileCacheStats(tiles=len(digests))
        out: List[Optional[np.ndarray]] = [None] * len(digests)
        # key -> rows of the batch it serves; the first row is the one imaged.
        pending: "OrderedDict[str, List[int]]" = OrderedDict()
        with self._lock:
            for index, digest in enumerate(digests):
                if digest == ZERO_TILE_DIGEST:
                    out[index] = zero_core
                    tally.zero_hits += 1
                    continue
                key = prefix + digest
                rows = pending.get(key)
                if rows is not None:
                    rows.append(index)
                    tally.hits += 1
                    continue
                out[index] = self._lookup(key, tally, context)
                if out[index] is None:
                    pending[key] = [index]
                    tally.misses += 1
        if pending:
            misses = [rows[0] for rows in pending.values()]
            # Allocated here, on the calling thread: one allocated in a
            # helper share would stay in that thread's malloc arena.
            entries = [np.empty((side, side), real_dtype) for _ in misses]

            def read(start: int, stop: int, buffer: np.ndarray) -> np.ndarray:
                for row, index in enumerate(misses[start:stop]):
                    buffer[row] = tiles[index]
                return buffer[:stop - start]

            def write(start: int, cores: np.ndarray) -> None:
                for row, core in enumerate(cores, start):
                    entries[row][...] = core

            image_batch(len(misses), read, write)
            admitted = []
            with self._lock:
                for entry, (key, rows) in zip(entries, pending.items()):
                    entry.flags.writeable = False
                    for index in rows:
                        out[index] = entry
                    if key not in self._memory:
                        admitted.append((key, self._admit(key, entry, tally)))
            for key, entry in admitted:  # compression runs outside the lock
                self._disk.save(key, core=entry)
        with self._lock:
            self.stats += tally
        return out, tally

    # ------------------------------------------------------------------ #
    # tiers (lock held by callers, counting into the caller's tally)
    # ------------------------------------------------------------------ #
    def _lookup(self, key: str, tally: TileCacheStats,
                context: TileCacheContext) -> Optional[np.ndarray]:
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            tally.hits += 1
            return cached
        loaded = self._disk.load(key, tally,
                                 lambda data: _decode_core(data, context))
        if loaded is not None:
            tally.disk_loads += 1
            return self._admit(key, loaded, tally)  # promote, file left as is
        return None

    def _admit(self, key: str, value: np.ndarray,
               tally: TileCacheStats) -> np.ndarray:
        """Take ownership of ``value`` as the (read-only) entry for ``key``."""
        value.flags.writeable = False  # entries are served without a copy
        self._memory[key] = value
        self._memory_bytes += value.nbytes
        while self._memory_bytes > self.max_bytes and len(self._memory) > 1:
            _, evicted = self._memory.popitem(last=False)
            self._memory_bytes -= evicted.nbytes
            tally.evictions += 1
        return value

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters (disk is kept)."""
        with self._lock:
            self._memory.clear()
            self._memory_bytes = 0
            # In place: a reference taken before the clear keeps counting.
            vars(self.stats).update(vars(TileCacheStats()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)


_default_cache: Optional[TileResultCache] = None
#: Held while the process-wide cache is built or replaced, so concurrent
#: first callers share one cache (and its dedup and counters).
_default_cache_lock = threading.Lock()


def default_tile_cache() -> TileResultCache:
    """The process-wide tile cache (disk tier from ``REPRO_TILE_CACHE_DIR``)."""
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None:
            _default_cache = TileResultCache(
                cache_dir=os.environ.get("REPRO_TILE_CACHE_DIR"))
        return _default_cache


def configure_default_tile_cache(cache_dir: Optional[str] = None,
                                 max_bytes: int = DEFAULT_MAX_BYTES,
                                 ) -> TileResultCache:
    """Replace the process-wide tile cache (e.g. to point it at a directory)."""
    global _default_cache
    with _default_cache_lock:
        _default_cache = TileResultCache(cache_dir=cache_dir,
                                         max_bytes=max_bytes)
        return _default_cache


def resolve_tile_cache(tile_cache=None) -> Optional[TileResultCache]:
    """Normalise the user-facing ``tile_cache`` argument to a cache or ``None``.

    * a :class:`TileResultCache` instance — used as-is,
    * ``True`` — the process-wide default cache,
    * ``False`` or ``None`` — caching off.
    """
    if isinstance(tile_cache, TileResultCache):
        return tile_cache
    if tile_cache is True:
        return default_tile_cache()
    if tile_cache is False or tile_cache is None:
        return None
    raise TypeError(
        f"tile_cache must be a TileResultCache, bool or None, "
        f"got {tile_cache!r}")
