"""The unified, serialisable compute policy: :class:`ComputeConfig`.

Historically the compute-policy knobs — ``fft_workers``, ``precision``,
``tile_cache`` — were threaded as loose keyword arguments
through :class:`~repro.engine.ExecutionEngine`,
:class:`~repro.engine.EngineSpec`, :class:`~repro.sweep.ProcessWindowSweep`
and every CLI subcommand; today an engine is the one consumer of all three
(a spec and a sweep only carry the config to it).  A
campaign *service* request needs that policy to be one serialisable object:
:class:`ComputeConfig` is that object, a frozen dataclass that

* is read from a service request's ``"compute"`` JSON object
  (:meth:`from_dict`) and built from the CLI's three compute flags
  ``--fft-workers``, ``--precision`` and ``--tile-cache``, and
* normalises names to concrete choices (:meth:`resolve`, written out with
  :meth:`as_dict`) — e.g. ``precision=None`` becomes ``"float64"`` — so a
  run can record what it used.

Every field defaults to ``None`` = the code's default: the process's CPU
budget (:func:`~repro.backend.fft.default_fft_workers`), float64, and no
tile cache.  The config is the one spelling of compute policy; the
environment names only deployment settings (the CPU budget and where the
disk tiers live), never a policy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from .precision import AUTO_PRECISION, is_auto_precision, resolve_precision

#: The JSON field names, in canonical order.  ``from_dict`` rejects anything
#: else loudly — a misspelled knob in a service request must not silently
#: fall back to defaults.
_FIELDS = ("fft_workers", "precision", "tile_cache")


@dataclass(frozen=True)
class ComputeConfig:
    """One serialisable object for every compute-policy knob.

    ``None`` for any field means the code's default (the CPU budget,
    float64, no tile cache).  Fields hold *names*, never live objects, so a
    config pickles and crosses process / HTTP boundaries; places that accept
    rich instances (an :class:`~repro.backend.FFTBackend`, a
    ``TileResultCache``) keep accepting them as before, outside the config.
    """

    fft_workers: Optional[int] = None
    precision: Optional[str] = None
    tile_cache: Optional[bool] = None

    def __post_init__(self) -> None:
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

        ``precision`` becomes a concrete policy name, except the deferred
        ``auto`` spelling which survives (it needs a kernel bank and is
        resolved by the engines).  The result is what a campaign manifest
        should pin.
        """
        precision = AUTO_PRECISION if is_auto_precision(self.precision) \
            else resolve_precision(self.precision).name
        return dataclasses.replace(self, precision=precision)
