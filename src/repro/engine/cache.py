"""Process-wide kernel-bank cache keyed by an optics fingerprint.

Building a SOCS kernel bank is a thin SVD of the lit shifted-pupil stack
(:func:`~repro.optics.socs.socs_kernels`, ~20 ms cold on 256 px / 4 nm
optics; the ``(n m) x (n m)`` TCC is never formed).  This module builds each
bank **once per optics fingerprint per process** and shares the result
between the golden simulator, every
:class:`~repro.engine.execution.ExecutionEngine`, the experiment drivers and
the throughput benchmarks.

The fingerprint hashes everything that determines the kernel bank:

* the :class:`~repro.optics.simulator.OpticsConfig` fields (wavelength, NA,
  pixel pitch, tile size, defocus — the resist threshold is excluded because
  it does not affect the kernels),
* the source model (class + parameters; pixelated maps are hashed by value),
* the pupil model (defocus, Zernike coefficients, apodization).

The cache keeps one thing per ``(fingerprint, max_socs_order)``: the float64
SOCS kernel bank, and precision is the engine's business — an
:class:`~repro.engine.execution.ExecutionEngine` casts the bank it receives,
so a float32 engine costs one cast of the same master and dtypes never mix.
Setting a ``cache_dir`` (or the ``REPRO_KERNEL_CACHE_DIR`` environment
variable for the default cache) also persists the banks as ``.npz`` files,
letting separate processes skip the build entirely.  That disk
tier, :class:`NpzDiskTier`, is the one the tile-result cache persists
through too: entries are published by rename, written outside the cache
lock, and an unreadable one is a counted miss (``CacheStats.disk_errors``)
that is rebuilt and overwritten.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import logging
import os
import tempfile
import threading
import zipfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, TypeVar

import numpy as np

from ..optics.kernel_dims import kernel_dimensions
from ..optics.pupil import Pupil
from ..optics.socs import SOCSKernels, socs_kernels
from ..optics.source import Source

_LOG = logging.getLogger(__name__)
T = TypeVar("T")


def _describe_value(value) -> str:
    if isinstance(value, np.ndarray):
        digest = hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"ndarray[{value.shape}]:{digest}"
    if isinstance(value, dict):
        items = ",".join(f"{key}={_describe_value(value[key])}" for key in sorted(value))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_describe_value(item) for item in value) + "]"
    return repr(value)


def describe_component(component) -> str:
    """Stable textual description of a source / pupil / config object."""
    name = type(component).__name__
    if dataclasses.is_dataclass(component):
        fields = {f.name: getattr(component, f.name)
                  for f in dataclasses.fields(component)}
    elif hasattr(component, "__dict__"):
        fields = dict(vars(component))
    else:
        return f"{name}({component!r})"
    body = ",".join(f"{key}={_describe_value(fields[key])}" for key in sorted(fields))
    return f"{name}({body})"


def optics_fingerprint(config, source: Source, pupil: Pupil) -> str:
    """Hex digest identifying an imaging system up to its kernel bank."""
    parts = [
        f"wavelength={config.wavelength_nm!r}",
        f"na={config.numerical_aperture!r}",
        f"pixel={config.pixel_size_nm!r}",
        f"tile={config.tile_size_px!r}",
        f"defocus={getattr(config, 'defocus_nm', 0.0)!r}",
        describe_component(source),
        describe_component(pupil),
    ]
    return hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()


#: What ``np.load`` (or reading a member) raises on an ``.npz`` torn by a
#: crash or written by something else.  :class:`NpzDiskTier` treats these
#: as a counted miss and overwrites the entry; anything else propagates.
UNREADABLE_NPZ_ERRORS = (OSError, ValueError, EOFError, KeyError,
                         zipfile.BadZipFile, zlib.error)


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w") -> Iterator:
    """Open a stream whose contents become ``path`` only on a clean exit.

    Written to a uniquely named temp file beside ``path`` and published by
    rename: a concurrent reader — or the run after a SIGKILL or a full disk —
    finds the old file, the new one or none, never a torn one, whoever else
    is writing the same path.  An exception inside the block removes the
    temp file and propagates.
    """
    handle, partial = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
    try:
        with os.fdopen(handle, mode,
                       encoding=None if "b" in mode else "utf-8") as stream:
            yield stream
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


def save_npz_atomically(path: str, **arrays) -> None:
    """``np.savez_compressed`` through :func:`atomic_write`."""
    with atomic_write(path, "wb") as stream:
        np.savez_compressed(stream, **arrays)


class LockedLRU:
    """A bounded least-recently-used memo that worker threads may share.

    ``get`` -> ``move_to_end`` / ``popitem`` on a bare ``OrderedDict`` is a
    check-then-act: another thread's eviction between the two steps raises
    ``KeyError``.  One lock covers the lookup, the build and the eviction,
    so a value is also built at most once per residency however many
    threads ask for it at the same moment.
    """

    def __init__(self, limit: int):
        self.limit = int(limit)
        self._lock = threading.Lock()
        self._items: "OrderedDict[Hashable, object]" = OrderedDict()

    def get_or_build(self, key: Hashable, build: Callable[[], object]):
        with self._lock:
            value = self._items.get(key)
            if value is None:
                value = build()
                self._items[key] = value
                while len(self._items) > self.limit:
                    self._items.popitem(last=False)
            else:
                self._items.move_to_end(key)
            return value

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


@dataclass
class CacheStats:
    """Observable counters for the cache-behaviour regression tests."""

    decompositions: int = 0
    hits: int = 0
    misses: int = 0
    disk_loads: int = 0
    #: Disk entries that existed but could not be read (torn / foreign file):
    #: each is a miss whose rebuilt bank overwrites the entry.
    disk_errors: int = 0


class NpzDiskTier:
    """The ``.npz`` disk tier both caches persist through.

    The entry for ``key`` is ``<cache_dir>/<kind>-<sha1(key)>.npz``.
    :meth:`save` publishes it through :func:`atomic_write`; :meth:`load`
    answers ``None`` for a missing entry and for an unreadable one, which is
    counted on the owner's ``stats.disk_errors`` and logged, so the
    recomputed value overwrites it.  Without a ``cache_dir`` it holds nothing.
    """

    def __init__(self, cache_dir: Optional[str], kind: str):
        self.cache_dir = cache_dir
        self.kind = kind

    def path(self, key: str) -> str:
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()
        return os.path.join(self.cache_dir, f"{self.kind}-{digest}.npz")

    def save(self, key: str, **arrays) -> None:
        if self.cache_dir:
            os.makedirs(self.cache_dir, exist_ok=True)
            save_npz_atomically(self.path(key), **arrays)

    def load(self, key: str, stats, decode: Callable[[Any], T]) -> Optional[T]:
        """``decode`` of the open entry for ``key``, or ``None`` on a miss."""
        if not self.cache_dir:
            return None
        path = self.path(key)
        if not os.path.exists(path):
            return None
        try:
            # Opened here, not by np.load, which leaks the handle when the
            # archive is torn.
            with open(path, "rb") as handle, np.load(handle) as data:
                return decode(data)
        except UNREADABLE_NPZ_ERRORS as exc:
            stats.disk_errors += 1
            _LOG.warning("unreadable %s cache entry %s (%s): recomputing it",
                         self.kind, path, type(exc).__name__)
            return None


def _bank_from_npz(data) -> SOCSKernels:
    return SOCSKernels(
        kernels=data["kernels"],
        eigenvalues=data["eigenvalues"],
        kernel_shape=tuple(int(v) for v in data["kernel_shape"]),
        total_energy=float(data["total_energy"]))


class KernelBankCache:
    """Thread-safe cache of float64 SOCS kernel banks, one per optics + order.

    Parameters
    ----------
    cache_dir:
        Optional directory for on-disk persistence of decomposed kernel
        banks (created on first write).  ``None`` keeps the cache purely
        in-memory.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir = cache_dir
        self.stats = CacheStats()
        self._banks: Dict[str, SOCSKernels] = {}
        self._disk = NpzDiskTier(cache_dir, "kernels")
        self._lock = threading.Lock()

    def get_kernels(self, config, source: Source, pupil: Pupil) -> SOCSKernels:
        """The float64 SOCS bank for these optics, built at most once.

        Truncated at ``config.max_socs_order`` and built by
        :func:`~repro.optics.socs.socs_kernels` (no TCC is formed): the bank
        is the one thing kept, in memory and under a ``cache_dir`` on disk.
        An engine of another precision casts it
        (:class:`~repro.engine.execution.ExecutionEngine`).
        """
        order = getattr(config, "max_socs_order", None)
        # The literal precision keeps the key — and so every kernels-*.npz
        # name — what it was when banks were also kept per precision.
        key = (f"{optics_fingerprint(config, source, pupil)}"
               f"|order={order}|prec=float64")
        with self._lock:
            bank = self._banks.get(key)
            if bank is not None:
                self.stats.hits += 1
                return bank
            self.stats.misses += 1
            bank = self._disk.load(key, self.stats, _bank_from_npz)
            if bank is not None:
                self.stats.disk_loads += 1
                self._banks[key] = bank
                return bank
            self.stats.decompositions += 1
            bank = socs_kernels(
                source, pupil,
                kernel_dimensions(config.tile_size_px, config.tile_size_px,
                                  wavelength_nm=config.wavelength_nm,
                                  numerical_aperture=config.numerical_aperture,
                                  pixel_size_nm=config.pixel_size_nm),
                field_size_nm=config.field_size_nm,
                wavelength_nm=config.wavelength_nm,
                numerical_aperture=config.numerical_aperture, max_order=order)
            self._banks[key] = bank
        # Compressed and written outside the lock: a hit never waits on it.
        self._disk.save(key, kernels=bank.kernels,
                        eigenvalues=bank.eigenvalues,
                        kernel_shape=np.asarray(bank.kernel_shape),
                        total_energy=np.asarray(bank.total_energy))
        return bank

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters (disk is kept)."""
        with self._lock:
            self._banks.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._banks)


_default_cache = KernelBankCache(cache_dir=os.environ.get("REPRO_KERNEL_CACHE_DIR"))


def default_kernel_cache() -> KernelBankCache:
    """The process-wide cache shared by simulators, engines and experiments."""
    return _default_cache


def kernel_cache_for(cache_dir: Optional[str]) -> KernelBankCache:
    """A disk-backed cache on ``cache_dir`` when one is named, else the
    process-wide one."""
    return KernelBankCache(cache_dir=cache_dir) if cache_dir \
        else default_kernel_cache()
