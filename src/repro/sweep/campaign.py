"""The one campaign request (schema: ``docs/service.md``): ``repro
sweep-window`` builds it from its flags, the campaign service receives it
over HTTP, and both parse it with :meth:`CampaignRequest.from_dict` and run
it with :meth:`CampaignRequest.run`.  Parsing builds everything the run uses,
the layout included, so a bad field is a ``ValueError`` naming it before any
kernel bank is built: the CLI's ``error:`` line and exit 2, the service's 400.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

from ..backend import ComputeConfig
from ..engine.sharded import ShardedExecutor
from ..engine.tiling import TilingSpec
from ..layout.sources import load_layout_source, synthesize_layout_mask
from ..optics.simulator import OpticsConfig
from ..optics.source import Source, make_source
from .grid import FocusExposureGrid
from .process_window import ProcessWindowSweep, SweepOutcome, check_window_targets
from .store import CampaignStore

__all__ = ["CampaignRequest"]

_FIELDS = ("layout", "optics", "grid", "compute", "tolerance",
           "target_cd_nm", "guard_px", "store_aerials")


def _typed(value: Any, name: str, kind, what: str) -> Any:
    """``value`` if it is a ``kind`` (a bool only when ``kind`` is bool)."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got "
                         f"{json.dumps(value, default=repr)}")
    return value


def _resolve_layout(layout: Dict[str, Any], optics: OpticsConfig):
    """The raster or reader a ``layout`` block describes."""
    kind = layout.get("kind")
    if kind == "file":
        path = _typed(layout.get("path"), "layout.path", str, "a file path")
        try:
            # A reader's messages name the file; they pass through as is.
            return load_layout_source(path, optics.pixel_size_nm)
        except OSError as exc:
            raise ValueError(str(exc)) from exc
    if kind == "array":
        try:
            mask = np.asarray(layout["data"], dtype=float)
        except (KeyError, TypeError, ValueError):
            mask = None
        if mask is None or mask.ndim != 2:
            raise ValueError("layout.data must be a 2-D array of numbers")
        return mask
    if kind != "synthetic":
        raise ValueError(
            f"layout.kind must be synthetic, file or array, got {kind!r}")
    height, width, seed = (
        _typed(layout.get(key, default), f"layout.{key}", int, "an integer")
        for key, default in (("height_px", 128), ("width_px", 128),
                             ("seed", 0)))
    if min(height, width) < 1:
        raise ValueError("layout.height_px and width_px must be positive")
    return synthesize_layout_mask(
        height, width, optics.tile_size_px, optics.pixel_size_nm,
        _typed(layout.get("family", "B2m"), "layout.family", str, "a name"),
        seed)


@dataclass(frozen=True, eq=False)
class CampaignRequest:
    """A parsed campaign: everything its run uses, built once."""

    optics: OpticsConfig
    source: Optional[Source]
    grid: FocusExposureGrid
    #: A dense raster, or a windowed :class:`repro.layout.LayoutReader`.
    layout: Any
    compute: ComputeConfig
    tolerance: float
    target_cd_nm: Optional[float]
    guard_px: Optional[int]
    store_aerials: bool

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignRequest":
        """Parse and build a request; nothing is coerced (``target_cd_nm``
        0 or ``None`` measures the target at nominal)."""
        if not isinstance(data, Mapping):
            raise ValueError("campaign request must be a JSON object")
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown request field(s) {', '.join(unknown)}; known "
                f"fields: {', '.join(sorted(_FIELDS))}")
        blocks = ("layout", "optics", "grid")
        for name in blocks:
            if name not in data:
                raise ValueError(f"campaign request needs a {name!r} block")
            _typed(data[name], name, Mapping, "a JSON object")
        layout, optics, grid = (dict(data[name]) for name in blocks)
        for axis in ("focus_nm", "dose"):
            values = grid.get(axis)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"grid.{axis} must be a non-empty list")
        if "tile_size_px" not in optics:
            raise ValueError("optics.tile_size_px is required")
        source_name = optics.pop("source", None)
        number = (int, float)
        tolerance = float(_typed(data.get("tolerance", 0.1), "tolerance",
                                 number, "a number"))
        target = data.get("target_cd_nm")
        if target is not None:
            target = float(_typed(target, "target_cd_nm", number,
                                  "a number")) or None
        guard_px = data.get("guard_px")
        if guard_px is not None:
            _typed(guard_px, "guard_px", int, "an integer")
        store_aerials = _typed(data.get("store_aerials", False),
                               "store_aerials", bool, "true or false")
        compute = data.get("compute")
        compute = ComputeConfig.from_dict({} if compute is None else compute)
        check_window_targets(target, tolerance)

        def build(block: str, make: Callable[[], Any]) -> Any:
            try:
                return make()
            except (TypeError, ValueError, AttributeError) as exc:
                raise ValueError(f"invalid {block}: {exc}") from exc

        config = build("optics", lambda: OpticsConfig(**optics))
        source = build("optics.source", lambda: make_source(source_name)
                       if source_name else None)
        focus_exposure = build("grid", lambda: FocusExposureGrid.from_sequences(
            [float(value) for value in grid["focus_nm"]],
            [float(value) for value in grid["dose"]]))
        build("compute", compute.resolve)
        if guard_px is not None:
            build("guard_px", lambda: TilingSpec(config.tile_size_px,
                                                 guard_px))
        # Last: the one part that reads a file or paints a raster.
        mask = _resolve_layout(layout, config)
        return cls(optics=config, source=source, grid=focus_exposure,
                   layout=mask, compute=compute, tolerance=tolerance,
                   target_cd_nm=target, guard_px=guard_px,
                   store_aerials=store_aerials)

    def run(self, store_dir: Optional[str], resume: bool,
            cache_dir: Optional[str],
            progress: Optional[Callable[[float, float, float], None]] = None,
            ) -> SweepOutcome:
        """Run the campaign, persisting to ``store_dir`` when given, with
        the kernel banks in ``cache_dir``; ``progress`` as in
        :meth:`ProcessWindowSweep.run`."""
        with ShardedExecutor(cache_dir=cache_dir) as executor:
            sweep = ProcessWindowSweep(self.optics, source=self.source,
                                       executor=executor,
                                       compute=self.compute)
            store = CampaignStore(store_dir, store_aerials=self.store_aerials) \
                if store_dir else None
            return sweep.run(self.layout, target_cd_nm=self.target_cd_nm,
                             grid=self.grid, tolerance=self.tolerance,
                             guard_px=self.guard_px, store=store,
                             resume=resume, progress=progress)
