"""The FFT backend: one protocol owning every transform in the repo.

Every FFT in the imaging stack goes through an :class:`FFTBackend` — the one
backend protocol: four required transforms, three optional ones and a
thread budget (``workers``).  The base class implements everything but the
four transforms, so a subclass that only defines those is a complete
backend.

The optional transforms are the three places the batched core knows part of
a 2-D transform is wasted: :meth:`FFTBackend.rfft2_columns` (it keeps 15
of a 256-px tile's 129 half-spectrum columns),
:meth:`FFTBackend.irfft2_zero_extended` (it inverse-transforms a half
spectrum of which 100 of 129 columns are zero, and may keep only a window
of the output rows: a tile's 198-row core of 256) and
:meth:`FFTBackend.ifft2_row_band` (the coherent fields: 29 of 60 rows carry
data, the rest are zero).  The base class writes all three in terms of the
four 2-D transforms on the full shapes; a backend whose 2-D transform *is*
two 1-D passes overrides them with those passes minus the lines that are
discarded or zero — **bit for bit** the base-class result, which means
scaling exactly where the library scales.

One implementation ships, :class:`NumpyFFTBackend` (``numpy.fft``), and
:func:`get_backend` returns it.  Its ``workers`` is the thread budget the
batched core spends on tile shares, one thread per transform: numpy's
pocketfft computes natively in the input precision and each 1-D line is an
independent, deterministic work item, so no budget changes a bit.

Extension point
---------------
Another engine subclasses :class:`FFTBackend` — ``name`` and the four
transforms are enough — and is handed to the engine as a live object
(``ExecutionEngine(..., fft_backend=...)``).  Every array the engine hands
it is a host ``numpy`` array; a backend that computes elsewhere copies in
and out inside its transforms.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

FFT_WORKERS_ENV_VAR = "REPRO_FFT_WORKERS"


def _row_band_split(band: np.ndarray, height: int) -> Tuple[int, int]:
    """Where a row band's top part ends and its bottom part starts once it
    is zero-extended to ``height`` rows."""
    n = band.shape[-2]
    if n > height:
        raise ValueError(f"band ({n} rows) larger than target ({height} rows)")
    return n - n // 2, height - n // 2


class FFTBackend:
    """The one backend protocol: the 2-D transforms the imaging stack calls.

    A subclass must provide the four transforms: they act on the last two
    axes, honour the numpy ``norm`` conventions and preserve the precision
    family of the input (single-precision in, single-precision out).  None
    may modify its input array — the batched core reuses zero-padded
    scratch arrays across transforms (a multi-dimensional c2r that works in
    place is the classic offender: copy first).  The three optional
    transforms are complete as inherited, so a transforms-only subclass is
    a complete backend.
    """

    #: What the engine records of the backend (tile-cache key, output
    #: metadata).
    name: str = "abstract"
    #: Threads one imaging call may spread its tiles over (``None``: one).
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
                             norm: Optional[str] = None,
                             rows: slice = slice(None)) -> np.ndarray:
        """Output ``rows`` of :meth:`irfft2` of ``array`` zero-extended
        along its last axis to the ``s[1] // 2 + 1`` columns of a half
        spectrum, bit for bit.

        An override may skip the column passes of the all-zero columns and
        the row passes of the output rows not kept.
        """
        full = np.zeros(tuple(array.shape[:-1]) + (s[1] // 2 + 1,),
                        array.dtype)
        full[..., :array.shape[-1]] = array
        return self.irfft2(full, s=s, norm=norm)[..., rows, :]

    def ifft2_row_band(self, band: np.ndarray, height: int,
                       norm: Optional[str] = None) -> np.ndarray:
        """:meth:`ifft2` of the ``(..., n, W)`` row ``band`` zero-extended
        to ``height`` rows in unshifted order — its first ``n - n // 2``
        rows at the top, the rest at the bottom (the split
        :func:`~repro.optics.grid.embed_centre_unshifted` writes) — bit for
        bit.

        An override may skip the row passes of the all-zero rows.
        """
        top, bottom = _row_band_split(band, height)
        full = np.zeros(band.shape[:-2] + (height, band.shape[-1]),
                        band.dtype)
        full[..., :top, :] = band[..., :top, :]
        full[..., bottom:, :] = band[..., top:, :]
        return self.ifft2(full, norm=norm)

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
    """The thread budget of an imaging call: env override or CPU affinity."""
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
    """``numpy.fft`` with a thread budget the batched core spends on shares.

    Parameters
    ----------
    workers:
        Threads one imaging call may occupy; ``None`` defers to
        :func:`default_fft_workers` at construction.  A call of several
        tiles runs as that many shares, each transforming on its own thread;
        the count never changes results, only wall-clock.
    """

    name = "numpy"

    def __init__(self, workers: Optional[int] = None):
        # Resolved once: a per-call env read / affinity syscall would let an
        # already-built backend change thread counts mid-run.
        self.workers = workers if workers else default_fft_workers()

    # numpy.fft.fft2 / ifft2 are the two 1-D passes below, bit for bit; the
    # second writes into the first's output instead of a third array.
    def fft2(self, array, norm=None):
        rows = np.fft.fft(array, axis=-1, norm=norm)
        return np.fft.fft(rows, axis=-2, norm=norm, out=rows)

    def ifft2(self, array, norm=None):
        rows = np.fft.ifft(array, axis=-1, norm=norm)
        return np.fft.ifft(rows, axis=-2, norm=norm, out=rows)

    def rfft2(self, array, norm=None):
        return np.fft.rfft2(array, norm=norm)

    def irfft2(self, array, s, norm=None):
        return np.fft.irfft2(array, s=s, norm=norm)

    # numpy.fft.rfft2 is rfft along the last axis, then fft down the columns;
    # irfft2 is ifft down the columns, then irfft (which zero-extends to
    # n // 2 + 1 by itself).  Each pass scales by its own share of ``norm``.
    def rfft2_columns(self, array, cols, norm=None):
        half = np.fft.rfft(array, axis=-1, norm=norm)
        return np.fft.fft(half[..., :cols], axis=-2, norm=norm)

    def irfft2_zero_extended(self, array, s, norm=None, rows=slice(None)):
        columns = np.fft.ifft(array, n=s[0], axis=-2, norm=norm)
        return np.fft.irfft(columns[..., rows, :], n=s[1], axis=-1,
                            norm=norm)

    # ifft2 is ifft along the rows, then down the columns: an all-zero row
    # stays exactly +0 under the first pass, so only the band's rows are
    # transformed, straight into their place in the output.
    def ifft2_row_band(self, band, height, norm=None):
        top, bottom = _row_band_split(band, height)
        out = np.empty(band.shape[:-2] + (height, band.shape[-1]),
                       np.result_type(band.dtype, np.complex64))
        np.fft.ifft(band[..., :top, :], axis=-1, norm=norm,
                    out=out[..., :top, :])
        out[..., top:bottom, :] = 0
        np.fft.ifft(band[..., top:, :], axis=-1, norm=norm,
                    out=out[..., bottom:, :])
        return np.fft.ifft(out, axis=-2, norm=norm, out=out)


_INSTANCES: Dict[Optional[int], NumpyFFTBackend] = {}


def get_backend(workers: Optional[int] = None) -> NumpyFFTBackend:
    """The numpy backend with a budget of ``workers`` threads (``None``:
    :func:`default_fft_workers`), one instance per budget per process."""
    backend = _INSTANCES.get(workers)
    if backend is None:
        backend = _INSTANCES.setdefault(workers, NumpyFFTBackend(workers))
    return backend
