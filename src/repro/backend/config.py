"""The unified, serialisable compute policy: :class:`ComputeConfig`.

Historically the compute-policy knobs — ``fft_backend``, ``fft_workers``,
``precision``, ``tile_cache`` — were threaded as loose keyword arguments
through :class:`~repro.engine.ExecutionEngine`,
:class:`~repro.engine.EngineSpec`, :class:`~repro.engine.ShardedExecutor`,
:class:`~repro.sweep.ProcessWindowSweep` and every CLI subcommand.  A
campaign *service* request needs that policy to be one serialisable object:
:class:`ComputeConfig` is that object, a frozen dataclass that

* round-trips through JSON (:meth:`to_json` / :meth:`from_json`) so HTTP
  requests and stored campaign manifests can carry it,
* reads the same environment variables the loose kwargs honoured
  (:meth:`from_env`: ``REPRO_FFT_BACKEND``, ``REPRO_FFT_WORKERS``,
  ``REPRO_PRECISION``, ``REPRO_TILE_CACHE``), and
* normalises names to concrete choices (:meth:`resolve`) — e.g.
  ``fft_backend=None`` becomes the ``auto``-resolved backend's name — so a
  config can be pinned into a manifest and reproduced later.

Every field defaults to ``None`` = "consumer decides", which preserves each
consumer's historical default (engines consult the environment).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

from .fft import FFT_BACKEND_ENV_VAR, FFT_WORKERS_ENV_VAR, get_backend
from .precision import (
    AUTO_PRECISION,
    PRECISION_ENV_VAR,
    is_auto_precision,
    resolve_precision,
)

TILE_CACHE_ENV_VAR = "REPRO_TILE_CACHE"
TILE_CACHE_DIR_ENV_VAR = "REPRO_TILE_CACHE_DIR"

#: The JSON field names, in canonical order.  ``from_json`` rejects anything
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
    *names*, never live objects, so a config pickles, JSON-serialises and
    crosses process / HTTP boundaries; places that accept rich instances
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
    def from_env(cls) -> "ComputeConfig":
        """The policy the environment variables express (unset = ``None``).

        Reads exactly the variables the loose kwargs honoured:
        ``REPRO_FFT_BACKEND``, ``REPRO_FFT_WORKERS``, ``REPRO_PRECISION``
        and ``REPRO_TILE_CACHE`` (+ ``REPRO_TILE_CACHE_DIR`` implying on).
        """
        workers = os.environ.get(FFT_WORKERS_ENV_VAR)
        return cls(
            fft_backend=os.environ.get(FFT_BACKEND_ENV_VAR) or None,
            fft_workers=int(workers) if workers else None,
            precision=os.environ.get(PRECISION_ENV_VAR) or None,
            tile_cache=env_tile_cache_flag(),
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ComputeConfig":
        """Build from a plain mapping, rejecting unknown keys loudly."""
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown ComputeConfig field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(_FIELDS)}")
        return cls(**{key: data[key] for key in _FIELDS if key in data})

    @classmethod
    def from_json(cls, text: Union[str, bytes, Mapping[str, Any]],
                  ) -> "ComputeConfig":
        """Parse a JSON object (or an already-decoded mapping)."""
        if isinstance(text, Mapping):
            return cls.from_dict(text)
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"ComputeConfig JSON must be an object, got "
                f"{type(data).__name__}")
        return cls.from_dict(data)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def as_dict(self, drop_none: bool = False) -> Dict[str, Any]:
        """Plain-dict form; ``drop_none`` omits unset fields."""
        data = {name: getattr(self, name) for name in _FIELDS}
        if drop_none:
            data = {key: value for key, value in data.items()
                    if value is not None}
        return data

    def to_json(self, drop_none: bool = False) -> str:
        """JSON form, round-tripping exactly through :meth:`from_json`."""
        return json.dumps(self.as_dict(drop_none=drop_none), sort_keys=True)

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

    def replace(self, **changes: Any) -> "ComputeConfig":
        """A copy with the named fields replaced (dataclasses.replace)."""
        return dataclasses.replace(self, **changes)
