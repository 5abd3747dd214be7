"""Pluggable FFT backends: one protocol owning every transform in the repo.

Every FFT in the imaging stack goes through an :class:`FFTBackend` — the one
backend protocol: four required transforms, two optional ones, a thread
budget (``workers``) and a one-thread sibling (``single_threaded``).  The
base class implements everything but the four transforms, so a subclass that
only defines those is a complete backend.

The optional transforms are the two places the batched core knows part of a
2-D real transform is wasted: :meth:`FFTBackend.rfft2_columns` (it keeps 15
of a 256-px tile's 129 half-spectrum columns) and
:meth:`FFTBackend.irfft2_zero_extended` (it inverse-transforms a half
spectrum of which 100 of 129 columns are zero).  The base class writes both
in terms of ``rfft2`` / ``irfft2``; a backend whose 2-D real transform *is*
two 1-D passes overrides them with those passes minus the lines that are
discarded or zero — **bit for bit** the base-class result, which means
scaling exactly where the library scales.  Two implementations ship:

* :class:`NumpyFFTBackend` — ``numpy.fft`` (always available, single
  threaded).  ``numpy.fft`` computes in double precision regardless of the
  input dtype, so this backend casts results back down for single-precision
  inputs to keep the rest of the pipeline (multiplies, reductions, chunk
  budgets) genuinely single precision.  ``numpy.fft.rfft2`` / ``irfft2``
  are 1-D calls chained in Python, each pass applying its own ``norm``.
* :class:`ScipyFFTBackend` — ``scipy.fft`` with a budget of ``workers``
  threads.  scipy's pocketfft computes natively in the input precision and
  is bit-for-bit deterministic across worker counts (each 1-D line is an
  independent work item), so the worker knob never changes results.  Its
  multi-axis real transforms scale **once**, in the real pass, by a factor
  computed in long double and rounded to the working precision; the complex
  pass is unscaled.  The batched core spends the budget on blocks rather
  than inside transforms (:meth:`FFTBackend.single_threaded`).

Backends register in a process-wide registry; :func:`get_backend` resolves a
request by explicit name, the ``REPRO_FFT_BACKEND`` environment variable or
the ``auto`` policy (scipy when importable, else numpy), and fails loudly —
listing the registered names — for anything unknown.

Extension point
---------------
:func:`register_backend` adds a backend: an adapter subclasses
:class:`FFTBackend` and provides the four transform methods and a ``name``
(:func:`get_backend` rejects anything else with a ``TypeError``).  Every
array the engine hands it is a host ``numpy`` array; a backend that computes
elsewhere copies in and out inside its transforms.
"""

from __future__ import annotations

import logging
import os
from typing import Callable, Dict, Optional, Tuple

import numpy as np

_LOG = logging.getLogger(__name__)

FFT_BACKEND_ENV_VAR = "REPRO_FFT_BACKEND"
FFT_WORKERS_ENV_VAR = "REPRO_FFT_WORKERS"

_SINGLE = (np.dtype(np.float32), np.dtype(np.complex64))


class FFTBackend:
    """The one backend protocol: the 2-D transforms the imaging stack calls.

    A subclass must provide the four transforms: they act on the last two
    axes, honour the numpy ``norm`` conventions and preserve the precision
    family of the input (single-precision in, single-precision out).  None
    may modify its input array — the batched core reuses one zero-padded
    scratch array across transforms (a multi-dimensional c2r that works in
    place is the classic offender: copy first).  The two optional
    transforms and :meth:`single_threaded` are complete as inherited, so a
    transforms-only subclass is a complete backend.
    """

    #: Registry name (also what ``REPRO_FFT_BACKEND`` selects).
    name: str = "abstract"
    #: Threads one imaging call may occupy (``None``: no such notion).
    workers: Optional[int] = None

    # -- transforms ------------------------------------------------------ #
    def fft2(self, array: np.ndarray, norm: Optional[str] = None) -> np.ndarray:
        raise NotImplementedError

    def ifft2(self, array: np.ndarray, norm: Optional[str] = None) -> np.ndarray:
        raise NotImplementedError

    def rfft2(self, array: np.ndarray, norm: Optional[str] = None) -> np.ndarray:
        """Half-spectrum transform of a real array (last axis -> ``W//2 + 1``)."""
        raise NotImplementedError

    def irfft2(self, array: np.ndarray, s: Tuple[int, int],
               norm: Optional[str] = None) -> np.ndarray:
        """Inverse of :meth:`rfft2` onto an explicit spatial shape ``s``."""
        raise NotImplementedError

    # -- optional transforms (complete as inherited) --------------------- #
    def rfft2_columns(self, array: np.ndarray, cols: int,
                      norm: Optional[str] = None) -> np.ndarray:
        """The first ``cols`` last-axis columns of :meth:`rfft2`, bit for bit.

        An override may skip the column passes of the columns not kept.
        """
        return self.rfft2(array, norm=norm)[..., :cols]

    def irfft2_zero_extended(self, array: np.ndarray, s: Tuple[int, int],
                             norm: Optional[str] = None) -> np.ndarray:
        """:meth:`irfft2` of ``array`` zero-extended along its last axis to
        the ``s[1] // 2 + 1`` columns of a half spectrum, bit for bit.

        An override may skip the column passes of the all-zero columns.
        """
        full = np.zeros(tuple(array.shape[:-1]) + (s[1] // 2 + 1,),
                        array.dtype)
        full[..., :array.shape[-1]] = array
        return self.irfft2(full, s=s, norm=norm)

    def single_threaded(self) -> "FFTBackend":
        """The backend the batched core transforms through when it runs
        several blocks at once: the same bits from one thread per transform.
        ``self`` — no :attr:`workers` to give up — keeps a call on one thread.
        """
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}(name={self.name!r})"


def available_cpus() -> int:
    """CPUs actually available to this process (affinity-aware).

    The single source of the platform probe: FFT thread defaults here and
    worker-thread defaults in :mod:`repro.engine.sharded` both delegate to
    it.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_fft_workers() -> int:
    """Worker count for multi-threaded backends: env override or CPU affinity."""
    env = os.environ.get(FFT_WORKERS_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{FFT_WORKERS_ENV_VAR} must be an integer, got {env!r}")
        if value > 0:
            return value
    return available_cpus()


class NumpyFFTBackend(FFTBackend):
    """``numpy.fft`` reference backend (single threaded, always available)."""

    name = "numpy"

    def __init__(self, workers: Optional[int] = None):
        # numpy.fft has no worker knob; accepted for interface uniformity.
        self.workers = workers

    @staticmethod
    def _match(out: np.ndarray, in_dtype: np.dtype) -> np.ndarray:
        # numpy.fft always computes in double; restore the single-precision
        # family so downstream multiplies/reductions stay cheap.
        if in_dtype in _SINGLE:
            target = np.complex64 if np.issubdtype(out.dtype, np.complexfloating) \
                else np.float32
            return out.astype(target)
        return out

    def fft2(self, array, norm=None):
        return self._match(np.fft.fft2(array, norm=norm), np.asarray(array).dtype)

    def ifft2(self, array, norm=None):
        return self._match(np.fft.ifft2(array, norm=norm), np.asarray(array).dtype)

    def rfft2(self, array, norm=None):
        return self._match(np.fft.rfft2(array, norm=norm), np.asarray(array).dtype)

    def irfft2(self, array, s, norm=None):
        return self._match(np.fft.irfft2(array, s=s, norm=norm),
                           np.asarray(array).dtype)

    # numpy.fft.rfft2 is rfft along the last axis, then fft down the columns;
    # irfft2 is ifft down the columns, then irfft (which zero-extends to
    # n // 2 + 1 by itself).  Each pass scales by its own share of ``norm``.
    def rfft2_columns(self, array, cols, norm=None):
        half = np.fft.rfft(array, axis=-1, norm=norm)
        return self._match(np.fft.fft(half[..., :cols], axis=-2, norm=norm),
                           np.asarray(array).dtype)

    def irfft2_zero_extended(self, array, s, norm=None):
        columns = np.fft.ifft(array, n=s[0], axis=-2, norm=norm)
        return self._match(np.fft.irfft(columns, n=s[1], axis=-1, norm=norm),
                           np.asarray(array).dtype)


class ScipyFFTBackend(FFTBackend):
    """``scipy.fft`` backend: multi-threaded pocketfft, native single precision.

    Parameters
    ----------
    workers:
        Threads one imaging call may occupy; ``None`` defers to
        :func:`default_fft_workers` at construction.  A lone transform runs
        on all of them; a multi-block batch gives each block's transforms
        one (:meth:`single_threaded`).  Worker count never changes results
        (bit-for-bit deterministic), only wall-clock.
    """

    name = "scipy"

    def __init__(self, workers: Optional[int] = None):
        import scipy.fft  # noqa: F401 - fail loudly at construction, not first use

        self._fft = __import__("scipy.fft", fromlist=["fft2"])
        # Resolved once: per-call env reads / affinity syscalls would cost a
        # syscall per transform and let an already-built backend silently
        # change thread counts mid-run.
        self.workers = workers if workers else default_fft_workers()
        self._single: Optional[ScipyFFTBackend] = None

    def single_threaded(self) -> "ScipyFFTBackend":
        if self.workers == 1:
            return self
        if self._single is None:
            self._single = ScipyFFTBackend(workers=1)
        return self._single

    def fft2(self, array, norm=None):
        return self._fft.fft2(array, norm=norm, workers=self.workers)

    def ifft2(self, array, norm=None):
        return self._fft.ifft2(array, norm=norm, workers=self.workers)

    def rfft2(self, array, norm=None):
        return self._fft.rfft2(array, norm=norm, workers=self.workers)

    def irfft2(self, array, s, norm=None):
        return self._fft.irfft2(array, s=s, norm=norm, workers=self.workers)

    @staticmethod
    def _factor(norm: Optional[str], samples: int, forward: bool, real_type):
        """The one factor pocketfft's multi-axis real transforms apply."""
        if norm == "ortho":
            return real_type(1 / np.sqrt(np.longdouble(samples)))
        if norm not in (None, "backward", "forward"):
            raise ValueError(f'invalid norm {norm!r}: expected "backward", '
                             f'"ortho" or "forward"')
        return real_type(1 / np.longdouble(samples)) \
            if (norm == "forward") == forward else real_type(1)

    # pocketfft's r2c over two axes is a real pass along the last axis,
    # scaled, then an unscaled complex pass down the columns; its c2r is the
    # unscaled complex pass, then a real pass, scaled.  The scale is a
    # multiply of the real samples after the transform — repeated here on
    # the real view, because a complex multiply could flip a zero's sign.
    def rfft2_columns(self, array, cols, norm=None):
        array = np.asarray(array)
        kept = np.ascontiguousarray(
            self._fft.rfft(array, axis=-1, workers=self.workers)[..., :cols])
        samples = kept.view(kept.real.dtype)
        factor = self._factor(norm, array.shape[-2] * array.shape[-1], True,
                              samples.dtype.type)
        if factor != 1:
            samples *= factor
        return self._fft.fft(kept, axis=-2, overwrite_x=True,
                             workers=self.workers)

    def irfft2_zero_extended(self, array, s, norm=None):
        columns = self._fft.ifft(array, n=s[0], axis=-2, norm="forward",
                                 workers=self.workers)
        out = self._fft.irfft(columns, n=s[1], axis=-1, norm="forward",
                              workers=self.workers)
        factor = self._factor(norm, s[0] * s[1], False, out.dtype.type)
        if factor != 1:
            out *= factor
        return out


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Callable[[Optional[int]], FFTBackend]] = {}
_INSTANCES: Dict[Tuple[str, Optional[int]], FFTBackend] = {}


def register_backend(name: str,
                     factory: Callable[[Optional[int]], FFTBackend]) -> None:
    """Register (or replace) a backend factory under ``name``.

    ``factory`` receives the requested worker count (``None`` = default) and
    returns an :class:`FFTBackend`.  Registration makes the name selectable
    via :func:`get_backend` and ``REPRO_FFT_BACKEND``.
    """
    key = name.strip().lower()
    if not key or key == "auto":
        raise ValueError(f"backend name {name!r} is reserved")
    _REGISTRY[key] = factory
    _INSTANCES.clear()


def registered_backends() -> Tuple[str, ...]:
    """Names selectable via :func:`get_backend` (sorted; excludes ``auto``)."""
    return tuple(sorted(_REGISTRY))


def _construct(key: str, workers: Optional[int]) -> FFTBackend:
    backend = _REGISTRY[key](workers)
    if not isinstance(backend, FFTBackend):
        # The engine calls the inherited transforms and single_threaded on
        # whatever it is handed, so a duck-typed object would fail mid-block.
        raise TypeError(
            f"the factory registered for FFT backend {key!r} returned "
            f"{type(backend).__name__}, which is not an FFTBackend; subclass "
            f"repro.backend.FFTBackend (only `name` and the four transforms "
            f"are required)")
    return backend


def _scipy_importable() -> bool:
    try:
        import scipy.fft  # noqa: F401
    except ImportError:
        return False
    return True


_auto_logged = False


def get_backend(name: Optional[str] = None,
                workers: Optional[int] = None) -> FFTBackend:
    """Resolve a backend by name, environment variable or the ``auto`` policy.

    Resolution order: explicit ``name`` argument, then ``REPRO_FFT_BACKEND``,
    then ``auto`` (scipy when importable, numpy otherwise).  Unknown names
    raise ``ValueError`` listing every registered backend — a misconfigured
    environment fails loudly instead of silently imaging on the wrong engine
    — and a factory that returns something other than an
    :class:`FFTBackend` raises ``TypeError`` naming the backend.
    """
    requested = name or os.environ.get(FFT_BACKEND_ENV_VAR) or "auto"
    key = requested.strip().lower()
    if key == "auto":
        have_scipy = "scipy" in _REGISTRY and _scipy_importable()
        key = "scipy" if have_scipy else "numpy"
        global _auto_logged
        if not _auto_logged:  # said once per process, not once per engine
            _auto_logged = True
            _LOG.info("FFT backend 'auto' resolved to %r: scipy is %s", key,
                      "importable" if have_scipy else "not importable")
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown FFT backend {requested!r} (from "
            f"{'argument' if name else FFT_BACKEND_ENV_VAR}); registered "
            f"backends: {', '.join(registered_backends())}")
    cache_key = (key, workers)
    backend = _INSTANCES.get(cache_key)
    if backend is None:
        backend = _construct(key, workers)
        _INSTANCES[cache_key] = backend
    return backend


def _scipy_factory(workers: Optional[int]) -> FFTBackend:
    try:
        return ScipyFFTBackend(workers=workers)
    except ImportError as exc:
        raise ValueError(
            "the 'scipy' FFT backend requires scipy; install it or select "
            "REPRO_FFT_BACKEND=numpy") from exc


register_backend("numpy", lambda workers: NumpyFFTBackend(workers=workers))
register_backend("scipy", _scipy_factory)
