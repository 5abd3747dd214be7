"""Device backends: the :class:`FFTBackend` subclasses that keep chunks resident.

The backend protocol (:class:`~repro.backend.fft.FFTBackend`) carries, next
to its four transforms, the small array namespace the batched hot path needs
— ``asarray`` / ``to_host`` / ``zeros`` / ``empty`` / ``conj`` /
``abs2_sum`` — with a device tag and
:class:`~repro.backend.fft.TransferStats` counters.  The base class
implements that namespace with numpy (the host backends inherit it
unchanged); the backends here override it, which is exactly what lets
:mod:`repro.engine.batched` run a whole chunk device-resident: **one upload
per mask chunk, one download per aerial chunk**, every intermediate
(spectra, kernel products, fields, reductions, upsampling) staying on the
device.

* **fakegpu** (:class:`FakeGpuArrayModule`) — a numpy-backed "device" for CI:
  its arrays carry a device tag and **refuse host-math mixing** (numpy ufuncs
  on a :class:`FakeDeviceArray` raise, as does combining one with a host
  ndarray), and every host<->device crossing is counted.  Residency is
  therefore *provable without hardware*: the transfer-count tests pin exactly
  one upload and one download per chunk.  Numerically fakegpu computes with
  ``numpy.fft`` on the wrapped arrays, so its results equal the numpy
  backend bit for bit.
* **cupy** (via :func:`register_cupy_backend`) — the real GPU backend: chunks
  upload once through ``cupy.asarray``, every FFT and elementwise op runs on
  the device (including a fused ``|field|^2`` reduction that never forms the
  ``abs`` temporary), and downloads stage through ``cupy.asnumpy`` into an
  optional caller-provided (pinned) host buffer.

Both keep their transforms polymorphic: callers handing *host* arrays to a
device backend get host arrays back (a per-call round trip — *counted*,
which is how the benchmarks show what residency saves).
"""

from __future__ import annotations

import numbers
from typing import Optional

import numpy as np

from .fft import FFTBackend, NumpyFFTBackend, register_backend


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
            "through FFTBackend.to_host() so transfers stay counted")

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
            f"math; upload it first via FFTBackend.asarray()")

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


class FakeGpuArrayModule(FFTBackend):
    """Numpy-backed device backend: residency made testable without hardware.

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
            return super().to_host(array, out)
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

    def abs2_sum(self, fields, axis):
        # Same expression as the host backends so fakegpu == numpy bit for bit
        # (the fused real*real + imag*imag variant is reserved for real GPUs,
        # where it skips the |.| temporary and its sqrt); polymorphic like the
        # transforms, so host fields get a host intensity and a counted trip.
        return self._transform(
            fields, lambda a: np.sum(np.abs(a) ** 2, axis=axis))


register_backend("fakegpu", lambda workers: FakeGpuArrayModule(workers=workers))


# --------------------------------------------------------------------------- #
# cupy: the real resident-device backend (optional dependency hook)
# --------------------------------------------------------------------------- #
def register_cupy_backend() -> None:
    """Register the resident CuPy (GPU) backend under the name ``cupy``.

    Documented stub on machines without CuPy/CUDA.  The backend overrides
    the array namespace of :class:`FFTBackend`, so instead of a host<->device
    round trip on *every* transform the batched core uploads each mask
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

    class CupyArrayModule(FFTBackend):  # pragma: no cover - optional dependency
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
                return super().to_host(array, out)
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

        def abs2_sum(self, fields, axis):
            # Fused |field|^2: no abs temporary, no sqrt -> one read of the
            # complex field and one write of the real intensity.
            return (fields.real * fields.real
                    + fields.imag * fields.imag).sum(axis=axis)

    register_backend("cupy", lambda workers: CupyArrayModule(workers=workers))
