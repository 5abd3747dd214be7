"""Process-window sweeps: focus x dose campaigns over the engine layer.

``ProcessWindowSweep`` turns "fast single image" into "fast qualification
campaign".  For each focus setting it derives the refocused optics (a new
fingerprint into the shared kernel-bank cache — the SOCS bank for a focus
is decomposed at most once and persists in the cache dir for later runs),
images the layout once through the batched engine, then
develops every dose from that single aerial (dose only scales the resist
threshold).  An ``F x D`` campaign therefore costs ``F`` kernel banks and
``F`` imaging passes, not ``F x D`` of each.

Campaign-scale features:

* **One imaging path** — every pending focus, nominal first, is one
  :meth:`ShardedExecutor.image_layout` call (a one-tile layout included: it
  is one placement without a guard band): tile batches cut on demand and
  imaged in bounded batches (:mod:`repro.engine.streaming`), each batch's
  tiles shared out over the spec's worker threads by the batched core, so
  peak RAM is one tile batch plus the stitched aerial however large the
  layout.  (Scheduling (condition, shard) tasks across focus boundaries was
  measured against this and bought nothing — ``docs/architecture.md``,
  "Worker threads".)
* **Disk-backed resumability** — pass ``store=`` (a
  :class:`~repro.sweep.store.CampaignStore` or a directory path) and every
  completed condition is persisted immediately; a killed campaign re-run
  against the same store computes exactly the remaining conditions.
* **Content-addressed tile dedup** — switch the process-wide tile
  cache on for the campaign's engines (``compute=ComputeConfig(
  tile_cache=True)`` or the CLI's ``--tile-cache``) and each focus images
  only its *unique* tile contents (each focus's kernel fingerprint keys its
  own namespace); with a disk tier, resumed runs hit across processes.  The
  run's own hit/miss counters (the tallies its ``image_layout`` calls
  return, untouched by campaigns sharing the cache) come back as
  ``SweepOutcome.tile_stats`` and accumulate in the store's manifest, so
  ``campaign-report`` shows dedup effectiveness with zero recomputation.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..backend import ComputeConfig
from ..engine.sharded import EngineSpec, ShardedExecutor
from ..engine.tile_cache import TileCacheStats
from ..engine.tiling import TilingSpec
from ..optics.process_window import (
    FocusExposurePoint,
    ProcessWindowResult,
    measure_cd,
    widest_feature_row,
)
from ..optics.pupil import Pupil
from ..optics.simulator import OpticsConfig
from ..optics.source import Source
from .grid import FocusExposureGrid
from .report import format_cd_table, format_summary
from .store import CampaignIdentityError, CampaignStore


@dataclass(frozen=True)
class SweepOutcome:
    """A completed sweep: the process window plus campaign provenance.

    ``computed_conditions`` / ``skipped_conditions`` split the grid into
    conditions imaged by *this* run and conditions served from a resumed
    :class:`~repro.sweep.store.CampaignStore` (always 0 without a store).
    """

    window: ProcessWindowResult
    grid: FocusExposureGrid
    num_tiles: int
    elapsed_s: float
    aerials: Optional[Dict[float, np.ndarray]] = None
    computed_conditions: int = 0
    skipped_conditions: int = 0
    store_dir: Optional[str] = None
    #: The sum of this run's ``LayoutImage.tile_stats``; ``None`` when no
    #: focus imaged through a tile-result cache.
    tile_stats: Optional[TileCacheStats] = None

    def cd_table(self) -> str:
        """The focus-exposure matrix as a fixed-width text table (CDs in nm)."""
        return format_cd_table(self.grid, self.window.cd_matrix(), self.window)

    def summary(self) -> str:
        """Window metrics at the grid's nominal condition, one per line."""
        return format_summary(self.grid, self.window)


def check_window_targets(target_cd_nm: Optional[float],
                         tolerance: float) -> None:
    """Reject a target CD or CD tolerance no process window can be judged
    against (``ValueError``); ``target_cd_nm=None`` = measure at nominal.

    The one copy of the rule: :meth:`ProcessWindowSweep.run` calls it, and
    so does :meth:`repro.sweep.campaign.CampaignRequest.from_dict` — the
    parse ``sweep-window`` and the campaign service share — before any
    kernel bank is built.
    """
    if target_cd_nm is not None and target_cd_nm <= 0:
        raise ValueError("target_cd_nm must be positive")
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must be in (0, 1)")


class ProcessWindowSweep:
    """Run focus-exposure campaigns for one optics description.

    CDs are measured on one row: the widest feature printed at the grid's
    nominal condition, chosen from the nominal-focus, nominal-dose resist
    and then held fixed for every other condition, so one feature is
    followed through the whole matrix.

    Parameters
    ----------
    config:
        Base optics; its ``defocus_nm`` is replaced per focus setting.
    source / pupil:
        Illuminator and base pupil (aberrations are kept, the pupil's defocus
        term is swept).  Defaults match the golden simulator.
    executor:
        The engine memo to image through; defaults to a fresh one.  Its
        ``cache_dir`` is stamped on every spec the campaign derives, so
        ``ShardedExecutor(cache_dir=...)`` persists the kernel banks there
        and no bank is decomposed in two caches.
    compute:
        The unified :class:`~repro.backend.ComputeConfig`, threaded into
        every :class:`EngineSpec` the campaign derives: every focus images
        through the same FFT backend at the same precision (``None`` fields
        are the code's defaults) and with the same ``tile_cache`` switch.
    """

    def __init__(self, config: OpticsConfig, source: Optional[Source] = None,
                 pupil: Optional[Pupil] = None,
                 executor: Optional[ShardedExecutor] = None,
                 compute: Optional[ComputeConfig] = None):
        #: The names-only compute policy every derived spec carries.
        self.compute = compute if compute is not None else ComputeConfig()
        self.config = config
        self.executor = executor if executor is not None else \
            ShardedExecutor()
        self.base_spec = EngineSpec(config=config, source=source, pupil=pupil,
                                    cache_dir=self.executor.cache_dir,
                                    compute=self.compute)

    # ------------------------------------------------------------------ #
    # per-focus engines
    # ------------------------------------------------------------------ #
    def spec_for_focus(self, focus_nm: float) -> EngineSpec:
        """The engine recipe for one focus setting of this system."""
        return self.base_spec.with_focus(focus_nm)

    def engine_for_focus(self, focus_nm: float):
        """The executor's memoised engine for one focus (bank persisted to
        the cache dir when there is one)."""
        return self.executor.warm(self.spec_for_focus(focus_nm))

    # ------------------------------------------------------------------ #
    # the campaign
    # ------------------------------------------------------------------ #
    def run(self, layout: np.ndarray, target_cd_nm: Optional[float] = None,
            grid: Optional[FocusExposureGrid] = None, tolerance: float = 0.1,
            tile_px: Optional[int] = None, guard_px: Optional[int] = None,
            keep_aerials: bool = False,
            store: Optional[Union[CampaignStore, str]] = None,
            resume: bool = True,
            progress: Optional[Callable[[float, float, float], None]] = None,
            ) -> SweepOutcome:
        """Image the layout through the whole focus-exposure matrix.

        Parameters
        ----------
        layout:
            Any 2-D mask raster — or a windowed
            :class:`repro.layout.LayoutReader`, in which case tiles are
            rasterised on demand (the dense raster never exists) and the
            campaign identity is the reader's canonical shape digest
            instead of a dense-raster SHA-256.  Every focus is one
            :meth:`ExecutionEngine.image_layout` call (``tile_px`` /
            ``guard_px`` as there); a layout of exactly the configured tile
            size is imaged as that one periodic tile, with no guard band.
        target_cd_nm:
            Nominal CD the window is judged against.  ``None`` measures it
            from the grid's nominal (focus closest to 0, dose closest to 1)
            condition.
        store:
            A :class:`~repro.sweep.store.CampaignStore` (or a directory
            path): every completed condition persists immediately, and with
            ``resume=True`` conditions already completed by an earlier —
            possibly killed — run of the *same* campaign are served from
            disk instead of recomputed.  The auto-tracked CD row and the
            auto-measured target CD are pinned in the store's manifest so a
            resumed run measures exactly what the first run did.
        resume:
            Honour a pre-existing manifest in ``store`` (the default).
            ``False`` refuses to touch a non-empty store, preventing two
            different campaigns from silently interleaving records.
        progress:
            ``progress(focus_nm, dose, cd_nm)`` after every *computed*
            condition — already persisted when a store is attached, so an
            exception raised here (or a kill) loses nothing.
        """
        if not hasattr(layout, "read_window"):
            layout = np.asarray(layout, dtype=float)
        if len(layout.shape) != 2:
            raise ValueError("layout must be a 2-D image")
        check_window_targets(target_cd_nm, tolerance)
        grid = grid if grid is not None else FocusExposureGrid()
        if isinstance(store, str):
            store = CampaignStore(store)

        # A layout of exactly the configured tile is the periodic tile the
        # kernels were built for: one placement, no guard band.  Campaign
        # identity still records the *requested* tiling.
        tile = self.config.tile_size_px
        tiling = TilingSpec(tile_px=tile) \
            if tuple(layout.shape) == (tile, tile) else None

        start = time.perf_counter()
        cd_row: Optional[int] = None
        num_tiles = 1
        cds: Dict[Tuple[float, float], float] = {}
        aerials: Dict[float, np.ndarray] = {}
        tile_stats: Optional[TileCacheStats] = None

        if store is not None:
            identity, _ = CampaignStore.campaign_identity(
                layout, grid.focus_values_nm, grid.dose_values, tolerance,
                self.base_spec.fingerprint(), tile_px=tile_px,
                guard_px=guard_px)
            completed = store.begin(identity, resume=resume)
            # Every CD of a campaign is extracted at one resist threshold;
            # a store pinned to another one belongs to another campaign.
            resist_threshold = float(self.config.resist_threshold)
            pinned = store.get_derived("resist_threshold")
            if pinned is None:
                store.set_derived("resist_threshold", resist_threshold)
            elif float(pinned) != resist_threshold:
                raise CampaignIdentityError(
                    f"the manifest in {store.root} was measured at resist "
                    f"threshold {float(pinned)!r}, not {resist_threshold!r}; "
                    f"use a fresh store directory for a new campaign")
            for entry in completed.values():
                cds[(entry["focus_nm"], entry["dose"])] = entry["cd_nm"]
            cd_row = store.get_derived("cd_row")
            if store.get_derived("num_tiles") is not None:
                # Provenance survives a full resume (no focus re-imaged).
                num_tiles = int(store.get_derived("num_tiles"))

        nominal = grid.nominal_focus_nm
        skipped = sum(condition in cds for condition in grid.conditions())
        pending = [focus for focus in grid.focus_values_nm
                   if any((focus, dose) not in cds
                          for dose in grid.dose_values)]
        if cd_row is None and nominal not in pending:
            # Only when a pinned cd_row went missing from the store: the
            # nominal focus is imaged again to define the tracked row.
            pending.append(nominal)
        # The nominal focus goes first — it defines the tracked row.
        pending.sort(key=lambda focus: focus != nominal)
        for focus in pending:
            imaged = self.executor.image_layout(
                self.spec_for_focus(focus), layout, tiling=tiling,
                tile_px=tile_px, guard_px=guard_px)
            aerial, num_tiles = imaged.aerial, imaged.num_tiles
            if imaged.tile_stats is not None:
                if tile_stats is None:
                    tile_stats = TileCacheStats()
                tile_stats += imaged.tile_stats
            if keep_aerials:
                aerials[focus] = aerial
            if store is not None:
                store.set_derived("num_tiles", int(num_tiles))
                store.save_aerial(focus, aerial)
            if cd_row is None:
                # The widest feature printed at the nominal condition fixes
                # the row every condition is measured on (one feature tracked
                # through the whole matrix) — and is pinned in the store so
                # resumed runs keep measuring the same feature.
                nominal_threshold = (self.config.resist_threshold
                                     / grid.nominal_dose)
                cd_row = int(widest_feature_row(aerial > nominal_threshold))
                if store is not None:
                    store.set_derived("cd_row", cd_row)
            for dose in grid.dose_values:
                if (focus, dose) in cds:
                    continue
                threshold = self.config.resist_threshold / dose
                resist = (aerial > threshold).astype(np.uint8)
                cd = measure_cd(resist, row=cd_row,
                                pixel_size_nm=self.config.pixel_size_nm)
                cds[(focus, dose)] = cd
                if store is not None:
                    store.record(focus, dose, cd)
                if progress is not None:
                    progress(focus, dose, cd)
        elapsed = time.perf_counter() - start

        if store is not None and tile_stats is not None:
            # This run's counters accumulate in the manifest, so a resumed
            # campaign's tile_cache block covers every run of it.
            store.record_tile_cache_stats(dataclasses.asdict(tile_stats))

        if target_cd_nm is None and store is not None:
            target_cd_nm = store.get_derived("target_cd_nm")
        if target_cd_nm is None:
            target_cd_nm = cds[(grid.nominal_focus_nm, grid.nominal_dose)]
            if target_cd_nm <= 0:
                raise ValueError(
                    "nothing prints at the nominal condition; pass an "
                    "explicit target_cd_nm")
            if store is not None:
                store.set_derived("target_cd_nm", float(target_cd_nm))

        points: List[FocusExposurePoint] = [
            FocusExposurePoint(focus_nm=focus, dose=dose, cd_nm=cds[(focus, dose)])
            for focus, dose in grid.conditions()]
        window = ProcessWindowResult(points=tuple(points),
                                     target_cd_nm=float(target_cd_nm),
                                     tolerance=float(tolerance))
        return SweepOutcome(window=window, grid=grid,
                            num_tiles=num_tiles,
                            elapsed_s=elapsed,
                            aerials=aerials if keep_aerials else None,
                            computed_conditions=len(grid) - skipped,
                            skipped_conditions=skipped,
                            tile_stats=tile_stats,
                            store_dir=store.root if store is not None else None)
