"""The unified, serialisable compute policy: :class:`ComputeConfig`.

Historically the compute-policy knobs — ``fft_backend``, ``fft_workers``,
``precision``, ``tile_cache`` — were threaded as loose keyword arguments
through :class:`~repro.engine.ExecutionEngine`,
:class:`~repro.engine.EngineSpec`, :class:`~repro.sweep.ProcessWindowSweep`
and every CLI subcommand; today an engine is the one consumer of all four
(a spec and a sweep only carry the config to it).  A
campaign *service* request needs that policy to be one serialisable object:
:class:`ComputeConfig` is that object, a frozen dataclass that

* is read from a service request's ``"compute"`` JSON object
  (:meth:`from_dict`) and built from the CLI's four compute flags
  ``--fft-backend``, ``--fft-workers``, ``--precision`` and
  ``--tile-cache``, and
* normalises names to concrete choices (:meth:`resolve`, written out with
  :meth:`as_dict`) — e.g. ``fft_backend=None`` becomes the
  ``auto``-resolved backend's name — so a run can record what it used.

Every field defaults to ``None`` = "consumer decides", which preserves each
consumer's historical default: the consumers read the environment
themselves (``REPRO_FFT_BACKEND`` in :func:`~repro.backend.get_backend`,
``REPRO_FFT_WORKERS`` in :func:`~repro.backend.fft.default_fft_workers`,
``REPRO_PRECISION`` in :func:`~repro.backend.resolve_precision`,
``REPRO_TILE_CACHE`` in :func:`env_tile_cache_flag`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from .fft import get_backend
from .precision import AUTO_PRECISION, is_auto_precision, resolve_precision

TILE_CACHE_ENV_VAR = "REPRO_TILE_CACHE"
TILE_CACHE_DIR_ENV_VAR = "REPRO_TILE_CACHE_DIR"

#: The JSON field names, in canonical order.  ``from_dict`` rejects anything
#: else loudly — a misspelled knob in a service request must not silently
#: fall back to defaults.
_FIELDS = ("fft_backend", "fft_workers", "precision", "tile_cache")

_FALSY = {"", "0", "false", "no", "off"}


def env_tile_cache_flag() -> Optional[bool]:
    """The tile-cache on/off verdict of the environment, or ``None`` = unset.

    The one parser of these variables (``ComputeConfig`` and
    :func:`repro.engine.tile_cache.resolve_tile_cache` both ask here):
    ``REPRO_TILE_CACHE`` switches caching on unless falsy (empty counts as
    falsy), and setting ``REPRO_TILE_CACHE_DIR`` alone also implies on.
    """
    flag = os.environ.get(TILE_CACHE_ENV_VAR)
    if flag is not None:
        return flag.strip().lower() not in _FALSY
    if os.environ.get(TILE_CACHE_DIR_ENV_VAR):
        return True
    return None


@dataclass(frozen=True)
class ComputeConfig:
    """One serialisable object for every compute-policy knob.

    ``None`` for any field means "consumer decides" — the consumer applies
    its historical default (usually: consult the environment).  Fields hold
    *names*, never live objects, so a config pickles and crosses process /
    HTTP boundaries; places that accept rich instances
    (an :class:`~repro.backend.FFTBackend`, a ``TileResultCache``) keep
    accepting them as before, outside the config.
    """

    fft_backend: Optional[str] = None
    fft_workers: Optional[int] = None
    precision: Optional[str] = None
    tile_cache: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.fft_backend is not None and not isinstance(self.fft_backend, str):
            raise TypeError(
                f"fft_backend must be a backend name or None, got "
                f"{self.fft_backend!r}; pass FFTBackend instances directly "
                f"to the consumer, not through ComputeConfig")
        if self.fft_workers is not None:
            if isinstance(self.fft_workers, bool) \
                    or not isinstance(self.fft_workers, int):
                raise TypeError(
                    f"fft_workers must be an int or None, got "
                    f"{self.fft_workers!r}")
            if self.fft_workers <= 0:
                raise ValueError(
                    f"fft_workers must be positive, got {self.fft_workers}")
        if self.precision is not None and not isinstance(self.precision, str):
            raise TypeError(
                f"precision must be a precision name or None, got "
                f"{self.precision!r}; pass Precision instances directly to "
                f"the consumer, not through ComputeConfig")
        if self.tile_cache is not None and not isinstance(self.tile_cache, bool):
            raise TypeError(
                f"tile_cache must be True, False or None in a ComputeConfig, "
                f"got {self.tile_cache!r}; pass TileResultCache instances "
                f"directly to the consumer")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ComputeConfig":
        """Build from a decoded JSON object, rejecting anything that is not
        an object, and unknown keys, loudly."""
        if not isinstance(data, Mapping):
            raise ValueError(f"compute must be a JSON object, got "
                             f"{type(data).__name__}")
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown ComputeConfig field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(_FIELDS)}")
        return cls(**{key: data[key] for key in _FIELDS if key in data})

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form, every field in canonical order."""
        return {name: getattr(self, name) for name in _FIELDS}

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def resolve(self) -> "ComputeConfig":
        """Pin every policy to a concrete, reproducible choice.

        ``fft_backend`` becomes the resolved backend's registered name (the
        ``auto`` / environment policy collapses to ``scipy`` or ``numpy``);
        ``precision`` becomes a concrete policy name, except the deferred
        ``auto`` spelling which survives (it needs a kernel bank and is
        resolved by the engines); ``tile_cache`` consults the environment
        when unset.  The result is what a campaign manifest should pin.
        """
        backend = get_backend(self.fft_backend, workers=self.fft_workers)
        if self.precision is None or is_auto_precision(self.precision):
            precision = AUTO_PRECISION if is_auto_precision(self.precision) \
                else resolve_precision(self.precision).name
        else:
            precision = resolve_precision(self.precision).name
        tile_cache = self.tile_cache
        if tile_cache is None:
            tile_cache = env_tile_cache_flag()
        return ComputeConfig(fft_backend=backend.name,
                             fft_workers=self.fft_workers,
                             precision=precision,
                             tile_cache=tile_cache)
