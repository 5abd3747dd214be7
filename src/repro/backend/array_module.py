"""Array modules: the device seam that keeps SOCS chunks resident.

An :class:`ArrayModule` generalises :class:`~repro.backend.fft.FFTBackend`
from "FFTs on host arrays" to "FFTs **plus** the small array namespace the
batched hot path needs" — ``asarray`` / ``to_host`` / ``zeros`` / ``empty`` /
``conj`` / ``real`` / ``abs2_sum`` / ``fftshift`` / ``concatenate`` — with a
device tag and :class:`TransferStats` counters.  That namespace is exactly
what lets :mod:`repro.engine.batched` run a whole chunk device-resident:
**one upload per mask chunk, one download per aerial chunk**, every
intermediate (spectra, kernel products, fields, reductions, upsampling)
staying on the device.

Three families of modules ship:

* **Host modules** (:class:`HostArrayModule`) — wrap any plain
  :class:`FFTBackend`; every array op is literally the numpy function, and
  ``asarray`` / ``to_host`` are pass-throughs, so host execution is
  **bit-for-bit unchanged** from the pre-module code (hypothesis-pinned).
* **fakegpu** (:class:`FakeGpuArrayModule`) — a numpy-backed "device" for CI:
  its arrays carry a device tag and **refuse host-math mixing** (numpy ufuncs
  on a :class:`FakeDeviceArray` raise, as does combining one with a host
  ndarray), and every host<->device crossing is counted.  Residency is
  therefore *provable without hardware*: the transfer-count tests pin exactly
  one upload and one download per chunk.  Numerically fakegpu computes with
  ``numpy.fft`` on the wrapped arrays, so its results equal the numpy
  backend bit for bit.
* **cupy** (via :func:`register_cupy_backend`) — the real GPU module: chunks
  upload once through ``cupy.asarray``, every FFT and elementwise op runs on
  the device (including a fused ``|field|^2`` reduction that never forms the
  ``abs`` temporary), and downloads stage through ``cupy.asnumpy`` into an
  optional caller-provided (pinned) host buffer.

:func:`as_array_module` adapts any backend to the module interface; passing
``like=`` selects the host view when the operand is a host array, so legacy
callers handing host arrays to a device backend keep today's behaviour
(per-call round-trips — now *counted*, which is how the benchmarks show what
residency saves).
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .fft import FFTBackend, NumpyFFTBackend, register_backend


@dataclass
class TransferStats:
    """Host<->device traffic counters of one :class:`ArrayModule` instance.

    ``uploads`` / ``downloads`` count crossings (one per ``asarray`` of a
    host array, one per ``to_host`` of a device array), the ``*_bytes``
    fields their payload sizes, and ``host_buffer_allocations`` how many
    staging buffers :meth:`ArrayModule.empty_host` handed out — the pinned
    -buffer reuse tests pin this at one per stream.  Increments take a lock:
    the worker threads of a sharded batch share one module, and the
    one-upload-one-download-per-chunk pins must hold there too.
    """

    uploads: int = 0
    downloads: int = 0
    upload_bytes: int = 0
    download_bytes: int = 0
    host_buffer_allocations: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def count_upload(self, nbytes: int) -> None:
        with self._lock:
            self.uploads += 1
            self.upload_bytes += int(nbytes)

    def count_download(self, nbytes: int) -> None:
        with self._lock:
            self.downloads += 1
            self.download_bytes += int(nbytes)

    def count_host_buffer(self) -> None:
        with self._lock:
            self.host_buffer_allocations += 1

    def reset(self) -> None:
        self.uploads = self.downloads = 0
        self.upload_bytes = self.download_bytes = 0
        self.host_buffer_allocations = 0


class ArrayModule(FFTBackend):
    """FFT backend + the array namespace the batched hot path needs.

    The four transform methods are inherited from :class:`FFTBackend` and
    must be **polymorphic** on device modules: a device array in yields a
    device array out (resident compute), a host array in yields a host array
    out (legacy-compatible round-trip, counted in :attr:`transfer_stats`).

    Array ops (``zeros`` / ``empty`` / ``conj`` / ``real`` / ``abs2_sum`` /
    ``fftshift`` / ``concatenate``) create or consume *device* arrays on
    resident modules and plain ndarrays on host modules; indices, shapes and
    scalars stay host-side everywhere (they are metadata, not data).
    """

    #: Device tag (``"cpu"``, ``"fakegpu:0"``, ``"cuda:N"``).
    device: str = "cpu"
    #: Whether ``asarray`` moves data to an accelerator (and the batched
    #: core should run the chunk-resident flow).
    is_resident: bool = False

    def __init__(self):
        self.transfer_stats = TransferStats()
        self._host_view: Optional["HostArrayModule"] = None

    # -- residency ------------------------------------------------------- #
    def is_device_array(self, array) -> bool:
        """Whether ``array`` already lives on this module's device."""
        return False

    def asarray(self, array):
        """Move a host array onto the device (counted); pass device arrays through."""
        raise NotImplementedError

    def to_host(self, array, out: Optional[np.ndarray] = None):
        """Move a device array back to the host (counted), optionally into ``out``.

        ``out`` is the staging hook for streamed downloads: a reusable —
        on CUDA, pinned — host buffer allocated via :meth:`empty_host`.
        Host arrays pass through (copied into ``out`` when given).
        """
        raise NotImplementedError

    def empty_host(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Allocate a host staging buffer for :meth:`to_host` downloads.

        Plain ``numpy.empty`` on host/fake modules; page-locked (pinned)
        memory on CUDA so device->host copies run at full PCIe bandwidth.
        Allocations are counted so buffer *reuse* is testable.
        """
        self.transfer_stats.count_host_buffer()
        return np.empty(shape, dtype=dtype)

    def host_view(self) -> "HostArrayModule":
        """The host-semantics view of this module.

        Transforms still route through this backend (so a device module's
        legacy host-in/host-out behaviour — and its transfer counting — is
        preserved), but every array op is plain numpy.  Host modules are
        their own view.
        """
        if self._host_view is None:
            self._host_view = HostArrayModule(self)
        return self._host_view

    # -- array namespace ------------------------------------------------- #
    def zeros(self, shape: Tuple[int, ...], dtype):
        raise NotImplementedError

    def empty(self, shape: Tuple[int, ...], dtype):
        raise NotImplementedError

    def conj(self, array):
        raise NotImplementedError

    def real(self, array):
        raise NotImplementedError

    def abs2_sum(self, fields, axis: int):
        """``sum(|fields|^2)`` over ``axis`` — the SOCS intensity reduction."""
        raise NotImplementedError

    def fftshift(self, array, axes=(-2, -1)):
        raise NotImplementedError

    def concatenate(self, arrays, axis: int = 0):
        raise NotImplementedError


class HostArrayModule(ArrayModule):
    """Pass-through module over a host :class:`FFTBackend`.

    Every array op **is** the numpy function and ``asarray`` / ``to_host``
    are pass-throughs, so routing the batched core through this module is
    bit-for-bit the pre-module host code.  Transforms delegate to the
    wrapped backend — which may itself be a device module, making this the
    ``host_view`` used when callers hand host arrays to a device backend.
    """

    device = "cpu"
    is_resident = False

    def __init__(self, backend: FFTBackend):
        super().__init__()
        self._backend = backend
        self.name = backend.name

    # transforms delegate (polymorphic device backends keep counting)
    def fft2(self, array, norm=None):
        return self._backend.fft2(array, norm=norm)

    def ifft2(self, array, norm=None):
        return self._backend.ifft2(array, norm=norm)

    def rfft2(self, array, norm=None):
        return self._backend.rfft2(array, norm=norm)

    def irfft2(self, array, s, norm=None):
        return self._backend.irfft2(array, s=s, norm=norm)

    def host_view(self) -> "HostArrayModule":
        return self

    # array namespace == numpy, verbatim
    def asarray(self, array):
        return np.asarray(array)

    def to_host(self, array, out: Optional[np.ndarray] = None):
        if out is None:
            return np.asarray(array)
        np.copyto(out, array)
        return out

    def zeros(self, shape, dtype):
        return np.zeros(shape, dtype=dtype)

    def empty(self, shape, dtype):
        return np.empty(shape, dtype=dtype)

    def conj(self, array):
        return np.conj(array)

    def real(self, array):
        return np.real(array)

    def abs2_sum(self, fields, axis):
        # Deliberately the legacy two-temporary expression: host results must
        # stay bit-for-bit; the fused variant is a device-module optimisation.
        return np.sum(np.abs(fields) ** 2, axis=axis)

    def fftshift(self, array, axes=(-2, -1)):
        return np.fft.fftshift(array, axes=axes)

    def concatenate(self, arrays, axis=0):
        return np.concatenate(arrays, axis=axis)


def as_array_module(backend: FFTBackend, like=None) -> ArrayModule:
    """Adapt any backend to the :class:`ArrayModule` interface.

    Plain backends are wrapped in a (cached) :class:`HostArrayModule`.  With
    ``like=`` given, a device module is narrowed to its host view when the
    operand is a host array — so functions serving both worlds pick the right
    namespace with one call.
    """
    if isinstance(backend, ArrayModule):
        module: ArrayModule = backend
    else:
        module = getattr(backend, "_array_module", None)
        if module is None:
            module = HostArrayModule(backend)
            try:
                backend._array_module = module
            except AttributeError:  # pragma: no cover - exotic backend objects
                pass
    if like is not None and not module.is_device_array(like):
        return module.host_view()
    return module


# --------------------------------------------------------------------------- #
# fakegpu: a numpy-backed device that makes residency provable on CI
# --------------------------------------------------------------------------- #
class FakeDeviceArray:
    """A numpy array wearing a device tag.

    Emulates the two properties of a real device array that matter for
    proving residency:

    * **host math refuses to mix** — ``__array_ufunc__ = None`` makes numpy
      ufuncs on it raise ``TypeError``, and binary ops with a host ndarray
      raise :class:`DeviceMixingError`, so any accidental host detour in the
      hot loop fails tests instead of silently working;
    * **crossings are explicit** — only :meth:`FakeGpuArrayModule.asarray`
      and :meth:`~FakeGpuArrayModule.to_host` move data, and both count.

    Indices, shapes, dtypes and python/numpy *scalars* interoperate freely
    (they are metadata); arithmetic between two device arrays delegates to
    numpy on the wrapped data, so fakegpu results equal numpy bit for bit.
    """

    __slots__ = ("_data",)
    __array_ufunc__ = None  # numpy ufuncs on this array raise TypeError

    def __init__(self, data: np.ndarray):
        self._data = data

    # -- metadata (host-side by design) ---------------------------------- #
    @property
    def shape(self):
        return self._data.shape

    @property
    def dtype(self):
        return self._data.dtype

    @property
    def ndim(self):
        return self._data.ndim

    @property
    def size(self):
        return self._data.size

    @property
    def nbytes(self):
        return self._data.nbytes

    @property
    def real(self):
        return FakeDeviceArray(self._data.real)

    @property
    def imag(self):
        return FakeDeviceArray(self._data.imag)

    def astype(self, dtype):
        return FakeDeviceArray(self._data.astype(dtype))

    def __len__(self):
        return len(self._data)

    def __repr__(self):  # pragma: no cover - debugging nicety
        return f"FakeDeviceArray(shape={self.shape}, dtype={self.dtype})"

    def __array__(self, *args, **kwargs):
        raise DeviceMixingError(
            "implicit fakegpu device->host conversion: route downloads "
            "through ArrayModule.to_host() so transfers stay counted")

    # -- indexing -------------------------------------------------------- #
    @staticmethod
    def _unwrap_key(key):
        if isinstance(key, tuple):
            return tuple(FakeDeviceArray._unwrap_key(k) for k in key)
        if isinstance(key, FakeDeviceArray):
            return key._data
        return key

    def __getitem__(self, key):
        return FakeDeviceArray(self._data[self._unwrap_key(key)])

    def __setitem__(self, key, value):
        self._data[self._unwrap_key(key)] = self._unwrap_operand(value)

    # -- arithmetic (device <op> device | scalar only) ------------------- #
    @staticmethod
    def _unwrap_operand(value):
        if isinstance(value, FakeDeviceArray):
            return value._data
        if isinstance(value, (numbers.Number, np.generic)):
            return value
        raise DeviceMixingError(
            f"cannot mix a host {type(value).__name__} into fakegpu device "
            f"math; upload it first via ArrayModule.asarray()")

    def _binary(self, other, op):
        return FakeDeviceArray(op(self._data, self._unwrap_operand(other)))

    def _rbinary(self, other, op):
        return FakeDeviceArray(op(self._unwrap_operand(other), self._data))

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._rbinary(other, lambda a, b: a * b)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self._rbinary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._rbinary(other, lambda a, b: a - b)

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._rbinary(other, lambda a, b: a / b)

    def __pow__(self, other):
        return self._binary(other, lambda a, b: a ** b)

    def __neg__(self):
        return FakeDeviceArray(-self._data)


class DeviceMixingError(TypeError):
    """Host data leaked into device math (or vice versa) without a transfer."""


class FakeGpuArrayModule(ArrayModule):
    """Numpy-backed device module: residency made testable without hardware.

    Computes with ``numpy.fft`` (via :class:`NumpyFFTBackend`, including its
    single-precision restore), so results are bit-for-bit the numpy
    backend's — the hypothesis tests pin this.  What differs is the
    *bookkeeping*: arrays are :class:`FakeDeviceArray` wrapped, every
    host<->device crossing counts, and host-math mixing raises.
    """

    name = "fakegpu"
    device = "fakegpu:0"
    is_resident = True

    def __init__(self, workers: Optional[int] = None):
        super().__init__()
        self.workers = workers  # accepted for interface uniformity
        self._fft = NumpyFFTBackend()

    # -- residency ------------------------------------------------------- #
    def is_device_array(self, array) -> bool:
        return isinstance(array, FakeDeviceArray)

    def asarray(self, array):
        if isinstance(array, FakeDeviceArray):
            return array
        data = np.array(array)  # a copy: the "device" owns its memory
        self.transfer_stats.count_upload(data.nbytes)
        return FakeDeviceArray(data)

    def to_host(self, array, out: Optional[np.ndarray] = None):
        if not isinstance(array, FakeDeviceArray):
            if out is None:
                return np.asarray(array)
            np.copyto(out, array)
            return out
        self.transfer_stats.count_download(array.nbytes)
        if out is None:
            return array._data.copy()
        np.copyto(out, array._data)
        return out

    # -- transforms (polymorphic: device in -> device out) --------------- #
    def _transform(self, array, func):
        if isinstance(array, FakeDeviceArray):
            return FakeDeviceArray(func(array._data))
        # Legacy host-in/host-out call: emulate the round-trip a naive GPU
        # backend pays per transform, and count it — this is exactly the
        # traffic the resident chunk flow eliminates.
        data = np.asarray(array)
        self.transfer_stats.count_upload(data.nbytes)
        result = func(data)
        self.transfer_stats.count_download(result.nbytes)
        return result

    def fft2(self, array, norm=None):
        return self._transform(array, lambda a: self._fft.fft2(a, norm=norm))

    def ifft2(self, array, norm=None):
        return self._transform(array, lambda a: self._fft.ifft2(a, norm=norm))

    def rfft2(self, array, norm=None):
        return self._transform(array, lambda a: self._fft.rfft2(a, norm=norm))

    def irfft2(self, array, s, norm=None):
        return self._transform(array,
                               lambda a: self._fft.irfft2(a, s=s, norm=norm))

    # -- array namespace -------------------------------------------------- #
    @staticmethod
    def _unwrap(array):
        return array._data if isinstance(array, FakeDeviceArray) else array

    def zeros(self, shape, dtype):
        return FakeDeviceArray(np.zeros(shape, dtype=dtype))

    def empty(self, shape, dtype):
        return FakeDeviceArray(np.empty(shape, dtype=dtype))

    def conj(self, array):
        return FakeDeviceArray(np.conj(self._unwrap(array)))

    def real(self, array):
        return FakeDeviceArray(np.real(self._unwrap(array)))

    def abs2_sum(self, fields, axis):
        # Same expression as the host module so fakegpu == numpy bit for bit
        # (the fused real*real + imag*imag variant is reserved for real GPUs,
        # where it skips the |.| temporary and its sqrt).
        return FakeDeviceArray(
            np.sum(np.abs(self._unwrap(fields)) ** 2, axis=axis))

    def fftshift(self, array, axes=(-2, -1)):
        return FakeDeviceArray(np.fft.fftshift(self._unwrap(array), axes=axes))

    def concatenate(self, arrays, axis=0):
        return FakeDeviceArray(
            np.concatenate([self._unwrap(a) for a in arrays], axis=axis))


register_backend("fakegpu", lambda workers: FakeGpuArrayModule(workers=workers))


# --------------------------------------------------------------------------- #
# cupy: the real resident-device module (optional dependency hook)
# --------------------------------------------------------------------------- #
def register_cupy_backend() -> None:
    """Register the resident CuPy (GPU) module under the name ``cupy``.

    Documented stub on machines without CuPy/CUDA.  Unlike the pre-module
    adapter — which round-tripped host<->device on *every* transform — this
    module is an :class:`ArrayModule`: the batched core uploads each mask
    chunk once, runs spectrum -> kernel product -> fields -> fused
    ``|field|^2`` reduction -> upsampling entirely on the device, and
    downloads each aerial chunk once, staging through a reusable pinned
    buffer on the streaming path.  Host arrays handed to the transform
    methods still round-trip per call (legacy-compatible), now counted.
    """
    try:
        import cupy
    except ImportError as exc:  # pragma: no cover - optional dependency
        raise ImportError(
            "CuPy is not installed; install a cupy-cuda* wheel matching your "
            "CUDA toolkit and call register_cupy_backend() again") from exc

    class CupyArrayModule(ArrayModule):  # pragma: no cover - optional dependency
        name = "cupy"
        is_resident = True

        def __init__(self, workers: Optional[int] = None):
            super().__init__()
            self.workers = workers  # unused: cuFFT parallelism is implicit
            self.device = f"cuda:{cupy.cuda.runtime.getDevice()}"

        # -- residency ------------------------------------------------- #
        def is_device_array(self, array) -> bool:
            return isinstance(array, cupy.ndarray)

        def asarray(self, array):
            if isinstance(array, cupy.ndarray):
                return array
            host = np.asarray(array)
            self.transfer_stats.count_upload(host.nbytes)
            return cupy.asarray(host)

        def to_host(self, array, out: Optional[np.ndarray] = None):
            if not isinstance(array, cupy.ndarray):
                if out is None:
                    return np.asarray(array)
                np.copyto(out, array)
                return out
            self.transfer_stats.count_download(array.nbytes)
            if out is None:
                return cupy.asnumpy(array)
            # cupy.asnumpy(out=) runs the D2H copy straight into the caller's
            # buffer — pinned when it came from empty_host, so the copy is
            # DMA at full PCIe bandwidth instead of pageable-memory staging.
            cupy.asnumpy(array, out=out)
            return out

        def empty_host(self, shape, dtype) -> np.ndarray:
            self.transfer_stats.count_host_buffer()
            dtype = np.dtype(dtype)
            nbytes = int(np.prod(shape)) * dtype.itemsize
            if nbytes == 0:
                return np.empty(shape, dtype=dtype)
            mem = cupy.cuda.alloc_pinned_memory(nbytes)
            return np.frombuffer(mem, dtype=dtype,
                                 count=int(np.prod(shape))).reshape(shape)

        # -- transforms ------------------------------------------------- #
        def _transform(self, array, func):
            if isinstance(array, cupy.ndarray):
                return func(array)
            host = np.asarray(array)
            self.transfer_stats.count_upload(host.nbytes)
            result = func(cupy.asarray(host))
            self.transfer_stats.count_download(result.nbytes)
            return cupy.asnumpy(result)

        def fft2(self, array, norm=None):
            return self._transform(
                array, lambda a: cupy.fft.fft2(a, norm=norm))

        def ifft2(self, array, norm=None):
            return self._transform(
                array, lambda a: cupy.fft.ifft2(a, norm=norm))

        def rfft2(self, array, norm=None):
            return self._transform(
                array, lambda a: cupy.fft.rfft2(a, norm=norm))

        def irfft2(self, array, s, norm=None):
            return self._transform(
                array, lambda a: cupy.fft.irfft2(a, s=s, norm=norm))

        # -- array namespace -------------------------------------------- #
        def zeros(self, shape, dtype):
            return cupy.zeros(shape, dtype=dtype)

        def empty(self, shape, dtype):
            return cupy.empty(shape, dtype=dtype)

        def conj(self, array):
            return cupy.conj(array)

        def real(self, array):
            return cupy.real(array)

        def abs2_sum(self, fields, axis):
            # Fused |field|^2: no abs temporary, no sqrt -> one read of the
            # complex field and one write of the real intensity.
            return (fields.real * fields.real
                    + fields.imag * fields.imag).sum(axis=axis)

        def fftshift(self, array, axes=(-2, -1)):
            shifts = [array.shape[axis] // 2 for axis in axes]
            return cupy.roll(array, shifts, axis=tuple(axes))

        def concatenate(self, arrays, axis=0):
            return cupy.concatenate(arrays, axis=axis)

    register_backend("cupy", lambda workers: CupyArrayModule(workers=workers))
