"""Process-wide kernel-bank cache keyed by an optics fingerprint.

The expensive part of SOCS imaging is building the kernel bank: the TCC
matrix (``O((n m)^2)`` accumulation) followed by a dense Hermitian
eigendecomposition.  The seed recomputed both in every simulator, engine and
experiment that needed kernels.  This module computes them **once per optics
fingerprint per process** and shares the result between the golden simulator,
every :class:`~repro.engine.execution.ExecutionEngine`, the experiment
drivers and the throughput benchmarks.

The fingerprint hashes everything that determines the kernel bank:

* the :class:`~repro.optics.simulator.OpticsConfig` fields (wavelength, NA,
  pixel pitch, tile size, defocus — the resist threshold is excluded because
  it does not affect the kernels),
* the source model (class + parameters; pixelated maps are hashed by value),
* the pupil model (defocus, Zernike coefficients, apodization).

The TCC and the SOCS decomposition are cached under separate keys so that two
consumers sharing optics but using different ``max_socs_order`` truncations
share the single TCC computation.  Bank keys also include the requested
:class:`~repro.backend.Precision`, so a float32 engine and a float64 engine
never share (or mix) dtypes: the float64 bank is decomposed once and the
single-precision variant is derived from it by casting, costing one cast
instead of a second eigendecomposition.  Setting a ``cache_dir`` (or the
``REPRO_KERNEL_CACHE_DIR`` environment variable for the default cache) also
persists decomposed kernel banks to disk as ``.npz`` files, letting separate
processes skip the eigendecomposition entirely.  Entries are published by
rename and an unreadable one is a counted miss (``CacheStats.disk_errors``):
the bank is rebuilt and the entry overwritten.
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
from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple

import numpy as np

from ..backend import (
    FLOAT64,
    Precision,
    autotune_precision,
    is_auto_precision,
    resolve_precision,
)
from ..optics.kernel_dims import kernel_dimensions
from ..optics.pupil import Pupil
from ..optics.socs import SOCSKernels, decompose_tcc
from ..optics.source import Source
from ..optics.tcc import TCCResult, compute_tcc

_LOG = logging.getLogger(__name__)


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
#: crash or written by something else.  Both disk tiers treat these as a
#: counted miss and overwrite the entry; anything else propagates.
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

    tcc_computes: int = 0
    decompositions: int = 0
    hits: int = 0
    misses: int = 0
    disk_loads: int = 0
    #: Disk entries that existed but could not be read (torn / foreign file):
    #: each is a miss whose rebuilt bank overwrites the entry.
    disk_errors: int = 0


class KernelBankCache:
    """Thread-safe cache of TCC matrices and SOCS kernel banks.

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
        self._tccs: Dict[str, TCCResult] = {}
        self._banks: Dict[str, SOCSKernels] = {}
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    @staticmethod
    def fingerprint(config, source: Source, pupil: Pupil) -> str:
        return optics_fingerprint(config, source, pupil)

    @staticmethod
    def _bank_key(fingerprint: str, max_order: Optional[int],
                  precision: Precision = FLOAT64) -> str:
        return f"{fingerprint}|order={max_order}|prec={precision.name}"

    def _kernel_shape(self, config) -> Tuple[int, int]:
        return kernel_dimensions(
            config.tile_size_px, config.tile_size_px,
            wavelength_nm=config.wavelength_nm,
            numerical_aperture=config.numerical_aperture,
            pixel_size_nm=config.pixel_size_nm)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def get_tcc(self, config, source: Source, pupil: Pupil) -> TCCResult:
        """TCC matrix for the fingerprinted optics, computed at most once."""
        key = self.fingerprint(config, source, pupil)
        with self._lock:
            cached = self._tccs.get(key)
            if cached is not None:
                self.stats.hits += 1
                return cached
            self.stats.misses += 1
            self.stats.tcc_computes += 1
            result = compute_tcc(
                source, pupil, self._kernel_shape(config),
                field_size_nm=config.field_size_nm,
                wavelength_nm=config.wavelength_nm,
                numerical_aperture=config.numerical_aperture)
            self._tccs[key] = result
            return result

    def get_kernels(self, config, source: Source, pupil: Pupil,
                    max_order: Optional[int] = None,
                    precision=None) -> SOCSKernels:
        """SOCS kernel bank for the fingerprinted optics, decomposed at most once.

        ``max_order`` defaults to ``config.max_socs_order`` when the config
        carries one.  ``precision`` keys the bank by dtype (float64 default):
        the eigendecomposition always runs in double, and a single-precision
        bank is derived from the cached double bank by casting — so banks
        never mix dtypes and each precision costs at most one cast, never a
        second decomposition.
        """
        if max_order is None:
            max_order = getattr(config, "max_socs_order", None)
        precision = resolve_precision(precision)
        fingerprint = self.fingerprint(config, source, pupil)
        key = self._bank_key(fingerprint, max_order, precision)
        with self._lock:
            cached = self._banks.get(key)
            if cached is not None:
                self.stats.hits += 1
                return cached
            loaded = self._load_from_disk(key)
            if loaded is not None:
                self.stats.misses += 1
                self.stats.disk_loads += 1
                self._banks[key] = loaded
                return loaded
            if precision.name != FLOAT64.name:
                self.stats.misses += 1
                # Request the float64 master explicitly: a None precision
                # would re-resolve REPRO_PRECISION and recurse forever when
                # the environment itself selects float32.
                base = self.get_kernels(config, source, pupil,
                                        max_order=max_order, precision=FLOAT64)
                bank = SOCSKernels(
                    kernels=base.kernels.astype(precision.complex_dtype),
                    eigenvalues=base.eigenvalues,
                    kernel_shape=base.kernel_shape,
                    total_energy=base.total_energy)
                self._banks[key] = bank
                self._save_to_disk(key, bank)
                return bank
            tcc = self.get_tcc(config, source, pupil)
            self.stats.misses += 1
            self.stats.decompositions += 1
            bank = decompose_tcc(tcc, max_order=max_order)
            self._banks[key] = bank
            self._save_to_disk(key, bank)
            return bank

    def bank_precision(self, config, source: Source, pupil: Pupil,
                       precision=None) -> Precision:
        """The concrete precision a bank for these optics is imaged at.

        The one bank-aware rule: the deferred ``"auto"`` spelling (given, or
        ``REPRO_PRECISION=auto`` behind a ``None``) pulls the float64 master
        bank — decomposed at most once per fingerprint anyway — and
        autotunes against it, so a float32 verdict later costs one cached
        cast, never a second decomposition; anything else is
        :func:`~repro.backend.resolve_precision`.
        """
        if is_auto_precision(precision):
            master = self.get_kernels(config, source, pupil, precision=FLOAT64)
            return autotune_precision(master.kernels)
        return resolve_precision(precision)

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters (disk is kept)."""
        with self._lock:
            self._tccs.clear()
            self._banks.clear()
            self.stats = CacheStats()

    def trim_memory(self) -> None:
        """Drop the in-memory entries but keep the counters and the disk files.

        Long sweeps touch one fingerprint per focus setting; with a disk
        backing, re-loading a trimmed bank costs milliseconds while keeping
        hundreds of decomposed banks resident costs GBs.  ``ShardedExecutor``
        trims after each engine build when a ``cache_dir`` is set.
        """
        with self._lock:
            self._tccs.clear()
            self._banks.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._banks)

    # ------------------------------------------------------------------ #
    # on-disk persistence
    # ------------------------------------------------------------------ #
    def _disk_path(self, key: str) -> Optional[str]:
        if not self.cache_dir:
            return None
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()
        return os.path.join(self.cache_dir, f"kernels-{digest}.npz")

    def _save_to_disk(self, key: str, bank: SOCSKernels) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        save_npz_atomically(path,
                            kernels=bank.kernels,
                            eigenvalues=bank.eigenvalues,
                            kernel_shape=np.asarray(bank.kernel_shape),
                            total_energy=np.asarray(bank.total_energy))

    def _load_from_disk(self, key: str) -> Optional[SOCSKernels]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with np.load(path) as data:
                return SOCSKernels(
                    kernels=data["kernels"],
                    eigenvalues=data["eigenvalues"],
                    kernel_shape=tuple(int(v) for v in data["kernel_shape"]),
                    total_energy=float(data["total_energy"]))
        except UNREADABLE_NPZ_ERRORS as exc:
            # A miss, counted and said; the rebuilt bank overwrites the entry.
            self.stats.disk_errors += 1
            _LOG.warning("unreadable kernel-bank cache entry %s (%s): "
                         "rebuilding", path, type(exc).__name__)
            return None


_default_cache = KernelBankCache(cache_dir=os.environ.get("REPRO_KERNEL_CACHE_DIR"))


def default_kernel_cache() -> KernelBankCache:
    """The process-wide cache shared by simulators, engines and experiments."""
    return _default_cache


def kernel_cache_for(cache_dir: Optional[str]) -> KernelBankCache:
    """A disk-backed cache on ``cache_dir`` when one is named, else the
    process-wide one."""
    return KernelBankCache(cache_dir=cache_dir) if cache_dir \
        else default_kernel_cache()
