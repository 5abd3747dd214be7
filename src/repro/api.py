"""The one-import façade over the reproduction's imaging stack.

Three verbs cover the common workflows, each a thin composition of the
public layers underneath (nothing here is new machinery — the façade only
picks defaults and wires the pieces):

>>> import repro.api as api                                # doctest: +SKIP
>>> image = api.image_layout("chip.npy", tile_px=64)
>>> outcome = api.sweep_window("chip.npy", focus_nm=[-40, 0, 40],
...                            dose=[0.95, 1.0, 1.05], store="campaign/")
>>> report = api.open_campaign("campaign/")

Compute policy rides in one place: every verb takes
``compute=ComputeConfig(...)`` (or inherits the ``REPRO_*`` environment
through the consumers' defaults) instead of a drift-prone spread of
``fft_workers=... / precision=...`` keywords — its ``fft_workers`` is also
how many threads an imaging call may occupy.  ``num_workers=`` is accepted
and ignored (the end-to-end benchmark still passes it).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .backend import ComputeConfig
from .engine.execution import LayoutImage
from .engine.sharded import EngineSpec, ShardedExecutor
from .layout.sources import load_layout_source
from .optics.pupil import Pupil
from .optics.simulator import OpticsConfig
from .optics.source import Source, make_source
from .sweep import (
    CampaignReport,
    FocusExposureGrid,
    ProcessWindowSweep,
    SweepOutcome,
    load_campaign_report,
)

__all__ = [
    "ComputeConfig",
    "image_layout",
    "open_campaign",
    "sweep_window",
]


def _resolve_layout(layout, pixel_size_nm: float):
    """A path becomes a raster/reader; an array passes through."""
    if isinstance(layout, str):
        return load_layout_source(layout, pixel_size_nm)
    return layout


def _resolve_source(source) -> Optional[Source]:
    if isinstance(source, str):
        return make_source(source)
    return source


def image_layout(layout, optics: Optional[OpticsConfig] = None, *,
                 source: Union[Source, str, None] = None,
                 pupil: Optional[Pupil] = None,
                 focus_nm: float = 0.0,
                 compute: Optional[ComputeConfig] = None,
                 tile_px: Optional[int] = None,
                 guard_px: Optional[int] = None,
                 num_workers: int = 1,
                 cache_dir: Optional[str] = None) -> LayoutImage:
    """Image one layout (array or file path) at one focus setting.

    Returns the engine's :class:`~repro.engine.execution.LayoutImage`
    (aerial + resist + tiling metadata).  ``num_workers`` is accepted and
    ignored: ``compute.fft_workers`` is the thread budget.
    """
    optics = optics or OpticsConfig()
    layout = _resolve_layout(layout, optics.pixel_size_nm)
    spec = EngineSpec(config=optics, source=_resolve_source(source),
                      pupil=pupil, cache_dir=cache_dir, compute=compute)
    if focus_nm:
        spec = spec.with_focus(focus_nm)
    return spec.build().image_layout(layout, tile_px=tile_px,
                                     guard_px=guard_px)


def sweep_window(layout, optics: Optional[OpticsConfig] = None, *,
                 focus_nm: Sequence[float] = (-80.0, -40.0, 0.0, 40.0, 80.0),
                 dose: Sequence[float] = (0.9, 1.0, 1.1),
                 grid: Optional[FocusExposureGrid] = None,
                 source: Union[Source, str, None] = None,
                 pupil: Optional[Pupil] = None,
                 compute: Optional[ComputeConfig] = None,
                 target_cd_nm: Optional[float] = None,
                 tolerance: float = 0.1,
                 tile_px: Optional[int] = None,
                 guard_px: Optional[int] = None,
                 store: Optional[str] = None,
                 resume: bool = True,
                 keep_aerials: bool = False,
                 num_workers: int = 1,
                 cache_dir: Optional[str] = None) -> SweepOutcome:
    """Run a focus-exposure campaign over a layout (array or file path).

    ``store`` makes the campaign resumable (and reportable via
    :func:`open_campaign`); ``grid`` overrides the ``focus_nm`` / ``dose``
    sequences when given.  ``num_workers`` is accepted and ignored, as in
    :func:`image_layout`.
    """
    optics = optics or OpticsConfig()
    layout = _resolve_layout(layout, optics.pixel_size_nm)
    if grid is None:
        grid = FocusExposureGrid.from_sequences(focus_nm, dose)
    executor = ShardedExecutor(cache_dir=cache_dir)
    sweep = ProcessWindowSweep(optics, source=_resolve_source(source),
                               pupil=pupil, executor=executor,
                               compute=compute)
    try:
        return sweep.run(layout, target_cd_nm=target_cd_nm, grid=grid,
                         tolerance=tolerance, tile_px=tile_px,
                         guard_px=guard_px, keep_aerials=keep_aerials,
                         store=store, resume=resume)
    finally:
        executor.close()


def open_campaign(store_dir: str) -> CampaignReport:
    """Load a stored campaign for inspection — zero recomputation.

    Works on live stores too (a campaign the service is still running
    reports its completed conditions; the rest show as pending).
    """
    return load_campaign_report(store_dir)
