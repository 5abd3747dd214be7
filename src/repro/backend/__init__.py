"""Compute-backend layer: every FFT and dtype decision in the repo lives here.

This package is the seam between the imaging engines and the hardware.  It
owns two orthogonal policies that the whole engine stack
(:mod:`repro.engine`, :mod:`repro.optics`, :mod:`repro.sweep`,
:mod:`repro.nn`) resolves through a single pair of calls:

* **How the FFTs run** — :func:`get_backend` returns the
  :class:`NumpyFFTBackend` (``numpy.fft``) with a thread budget of
  ``workers`` (``fft_workers`` / ``REPRO_FFT_WORKERS`` / the CPUs
  available), which the batched core spends on tile shares.  Another engine
  subclasses :class:`FFTBackend` (four transforms are enough) and is handed
  to the engine as a live object.
* **Which precision the pipeline runs at** — :func:`resolve_precision` maps
  ``"float64"`` (default) or ``"float32"`` (opt-in) to a :class:`Precision`
  policy carrying the real/complex dtype pair, the byte size used by the
  batched core's chunk budget, and the documented accuracy tolerance; the
  ``"auto"`` spelling defers to :func:`autotune_precision`, which picks
  float32 once a kernel bank's own truncation error provably dominates the
  dtype error (measured once per bank).

Both policies (plus the tile-cache switch) bundle into one
serialisable :class:`ComputeConfig` (see :mod:`repro.backend.config`) — the
``compute=`` argument every engine-stack constructor accepts, and the JSON
object campaign-service requests carry.  Names and switches travel only
there; the engine's own ``fft_backend`` / ``tile_cache`` keywords take live
objects (an :class:`FFTBackend`, a tile cache).

Usage
-----
>>> import numpy as np
>>> from repro.backend import ComputeConfig, get_backend, resolve_precision
>>> backend = get_backend(workers=2)        # or get_backend() = CPU budget
>>> backend.name, backend.workers
('numpy', 2)
>>> backend.rfft2(np.ones((8, 8)), norm="ortho").shape   # half spectrum
(8, 5)
>>> policy = resolve_precision("float32")
>>> policy.as_real(np.zeros((2, 2))).dtype   # float32 masks ...
dtype('float32')
>>> np.dtype(policy.complex_dtype)           # ... complex64 spectra
dtype('complex64')
>>> from repro.engine import ExecutionEngine
>>> engine = ExecutionEngine(np.ones((1, 3, 3)), compute=ComputeConfig(
...     fft_workers=1, precision="float32"))
>>> engine.backend.name, engine.kernels.dtype
('numpy', dtype('complex64'))

Policy has no second spelling in the environment: ``REPRO_FFT_WORKERS``
only caps the CPU budget a process may use (``fft_workers=None``), and a
``None`` precision is float64::

    REPRO_FFT_WORKERS=8 python -m repro.cli image-layout --precision float32 ...

Guarantees
----------
* the ``rfft2``/``irfft2`` half-spectrum paths equal a plain ``numpy.fft``
  full-spectrum reference (``tests/reference.py``) to ~1e-12 in float64
  (property-tested), and worker counts never change results (each 1-D
  line of a transform is an independent, deterministic work item).
* float32 aerial images agree with the float64 reference to the documented
  :attr:`Precision.aerial_rtol` (~1e-4, typically ~1e-6 observed).
"""

from .fft import (
    FFT_WORKERS_ENV_VAR,
    FFTBackend,
    NumpyFFTBackend,
    available_cpus,
    default_fft_workers,
    get_backend,
)
from .config import ComputeConfig
from .precision import (
    AUTO_PRECISION,
    FLOAT32,
    FLOAT64,
    Precision,
    autotune_precision,
    available_precisions,
    is_auto_precision,
    resolve_precision,
)

__all__ = [
    "FFTBackend", "NumpyFFTBackend", "get_backend",
    "available_cpus", "default_fft_workers", "FFT_WORKERS_ENV_VAR",
    "Precision", "FLOAT32", "FLOAT64", "resolve_precision",
    "available_precisions",
    "AUTO_PRECISION", "is_auto_precision", "autotune_precision",
    "ComputeConfig",
]
