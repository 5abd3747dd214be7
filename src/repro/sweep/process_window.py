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

* **One imaging path** — every pending focus is one
  :meth:`ShardedExecutor.image_layout` call: tile batches cut on demand and
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
* **Content-addressed tile dedup** (PR 6) — attach a tile-result cache to
  the executor (``ShardedExecutor(compute=ComputeConfig(tile_cache=True))``,
  a live ``TileResultCache`` as its ``tile_cache=``, the CLI's
  ``--tile-cache``, or ``REPRO_TILE_CACHE`` / ``REPRO_TILE_CACHE_DIR``) and
  each focus images only its *unique* tile contents (each focus's kernel
  fingerprint keys its own namespace); with a disk tier, resumed runs hit
  across processes, and the campaign store accumulates the hit/miss
  counters in its manifest so ``campaign-report`` shows dedup
  effectiveness with zero recomputation.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend import ComputeConfig
from ..engine.sharded import EngineSpec, ShardedExecutor
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
from .store import CampaignStore


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

    def cd_table(self) -> str:
        """The focus-exposure matrix as a fixed-width text table (CDs in nm)."""
        matrix = self.window.cd_matrix()
        doses = self.grid.dose_values
        header = "focus_nm \\ dose" + "".join(f"{dose:>10.3f}" for dose in doses)
        lines = [header]
        for focus in self.grid.focus_values_nm:
            row = f"{focus:>15.1f}"
            for dose in doses:
                cd = matrix[focus][dose]
                marker = " " if self.window.in_spec(
                    FocusExposurePoint(focus, dose, cd)) else "*"
                row += f"{cd:>9.1f}{marker}"
            lines.append(row)
        lines.append("(* = outside the CD tolerance band)")
        return "\n".join(lines)

    def summary(self) -> str:
        """Window metrics at the grid's nominal condition, one per line."""
        window = self.window
        focus = self.grid.nominal_focus_nm
        dose = self.grid.nominal_dose
        return "\n".join([
            f"target CD       : {window.target_cd_nm:.1f} nm "
            f"(tolerance +/- {window.tolerance * 100:.0f}%)",
            f"window fraction : {window.window_fraction() * 100:.1f}% "
            f"of {len(window.points)} conditions in spec",
            f"depth of focus  : {window.depth_of_focus_nm(dose):.1f} nm "
            f"at dose {dose:g}",
            f"exposure latitude: {window.exposure_latitude(focus) * 100:.1f}% "
            f"at focus {focus:g} nm",
        ])


class ProcessWindowSweep:
    """Run focus-exposure campaigns for one optics description.

    Parameters
    ----------
    config:
        Base optics; its ``defocus_nm`` is replaced per focus setting.
    source / pupil:
        Illuminator and base pupil (aberrations are kept, the pupil's defocus
        term is swept).  Defaults match the golden simulator.
    executor:
        The executor to image through; defaults to a fresh one.  Pass
        ``ShardedExecutor(cache_dir=...)`` to persist the kernel banks in the
        cache dir — the one kernel cache the campaign's specs name too, so
        no bank is decomposed in two caches.
    cd_row:
        Row for CD extraction.  ``None`` (the default) tracks the widest
        feature printed at the grid's nominal condition: the row is chosen
        from the nominal-focus, nominal-dose resist and then held fixed for
        every other condition, so one feature is followed through the whole
        matrix.
    compute:
        The unified :class:`~repro.backend.ComputeConfig`: its FFT /
        precision fields thread into every :class:`EngineSpec` the campaign
        derives — every focus images through the same FFT backend at the
        same precision (``None`` fields resolve the environment defaults at
        construction) — and its ``tile_cache`` field configures the default
        executor (an explicitly passed ``executor`` keeps its own policy).
    """

    def __init__(self, config: OpticsConfig, source: Optional[Source] = None,
                 pupil: Optional[Pupil] = None,
                 executor: Optional[ShardedExecutor] = None,
                 cd_row: Optional[int] = None,
                 compute: Optional[ComputeConfig] = None):
        #: The names-only compute policy every derived spec carries.
        self.compute = compute if compute is not None else ComputeConfig()
        self.config = config
        self.executor = executor if executor is not None else \
            ShardedExecutor(compute=self.compute)
        self.base_spec = EngineSpec(config=config, source=source, pupil=pupil,
                                    cache_dir=self.executor.cache_dir,
                                    compute=self.compute)
        self.cd_row = cd_row

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
    def _iter_focus_aerials(self, foci: Sequence[float], layout,
                            tile_px: Optional[int], guard_px: Optional[int],
                            single_tile: bool,
                            ) -> Iterator[Tuple[float, np.ndarray, int]]:
        """Yield ``(focus, stitched aerial, num_tiles)`` per pending focus.

        One :meth:`ShardedExecutor.image_layout` call per focus.  With a
        tile-result cache on the executor each focus's kernel fingerprint
        keys its own namespace: repeated cells within a focus hit (and a
        resumed campaign with a disk tier hits across runs) while distinct
        foci never mix.  A layout of exactly one tile has no guard band to
        cut and goes to the batched core directly.
        """
        for focus in foci:
            spec = self.spec_for_focus(focus)
            if single_tile:
                yield focus, self.executor.aerial_batch(spec, layout[None])[0], 1
            else:
                imaged = self.executor.image_layout(
                    spec, layout, tile_px=tile_px, guard_px=guard_px)
                yield focus, imaged.aerial, imaged.num_tiles

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
            instead of a dense-raster SHA-256.  A layout of exactly the
            configured tile size goes straight through the batched core;
            anything else runs through guard-banded tiling (``tile_px`` /
            ``guard_px`` as in :meth:`ExecutionEngine.image_layout`).
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
        is_reader = hasattr(layout, "read_window")
        if not is_reader:
            layout = np.asarray(layout, dtype=float)
        if len(layout.shape) != 2:
            raise ValueError("layout must be a 2-D image")
        if target_cd_nm is not None and target_cd_nm <= 0:
            raise ValueError("target_cd_nm must be positive")
        if not 0.0 < tolerance < 1.0:
            raise ValueError("tolerance must be in (0, 1)")
        grid = grid if grid is not None else FocusExposureGrid()
        if isinstance(store, str):
            store = CampaignStore(store)

        tile = self.config.tile_size_px
        single_tile = tuple(layout.shape) == (tile, tile)

        start = time.perf_counter()
        state = {"num_tiles": 1, "cd_row": self.cd_row, "computed": 0}
        cds: Dict[Tuple[float, float], float] = {}
        aerials: Dict[float, np.ndarray] = {}
        tile_cache = getattr(self.executor, "tile_cache", None)
        cache_before = dataclasses.asdict(tile_cache.stats) \
            if tile_cache is not None else None

        if store is not None:
            identity, _ = CampaignStore.campaign_identity(
                layout, grid.focus_values_nm, grid.dose_values, tolerance,
                self.base_spec.fingerprint(), tile_px=tile_px,
                guard_px=guard_px)
            for entry in store.begin(identity, resume=resume).values():
                cds[(entry["focus_nm"], entry["dose"])] = entry["cd_nm"]
            if state["cd_row"] is None:
                state["cd_row"] = store.get_derived("cd_row")
            if store.get_derived("num_tiles") is not None:
                # Provenance survives a full resume (no focus re-imaged).
                state["num_tiles"] = int(store.get_derived("num_tiles"))

        if is_reader and single_tile:
            # One tile is in-memory scale by definition; the identity above
            # already used the reader's digest, so materialising here only
            # feeds the batched core its expected dense (1, H, W) stack.
            layout = layout.read_window(0, 0, tile, tile)

        def handle_focus(focus: float, aerial: np.ndarray,
                         num_tiles: int) -> None:
            state["num_tiles"] = num_tiles
            if keep_aerials:
                aerials[focus] = aerial
            if store is not None:
                store.set_derived("num_tiles", int(num_tiles))
                store.save_aerial(focus, aerial)
            if state["cd_row"] is None:
                # The widest feature printed at the nominal condition fixes
                # the row every condition is measured on (one feature tracked
                # through the whole matrix) — and is pinned in the store so
                # resumed runs keep measuring the same feature.
                nominal_threshold = (self.config.resist_threshold
                                     / grid.nominal_dose)
                state["cd_row"] = int(widest_feature_row(
                    aerial > nominal_threshold))
                if store is not None:
                    store.set_derived("cd_row", state["cd_row"])
            for dose in grid.dose_values:
                if (focus, dose) in cds:
                    continue
                threshold = self.config.resist_threshold / dose
                resist = (aerial > threshold).astype(np.uint8)
                cd = measure_cd(resist, row=state["cd_row"],
                                pixel_size_nm=self.config.pixel_size_nm)
                cds[(focus, dose)] = cd
                state["computed"] += 1
                if store is not None:
                    store.record(focus, dose, cd, threshold)
                if progress is not None:
                    progress(focus, dose, cd)

        nominal = grid.nominal_focus_nm
        pending = [focus for focus in grid.focus_values_nm
                   if any((focus, dose) not in cds
                          for dose in grid.dose_values)]
        skipped = len(grid) - sum(
            sum((focus, dose) not in cds for dose in grid.dose_values)
            for focus in pending)
        if state["cd_row"] is None:
            # The nominal focus must complete first — it defines the tracked
            # row.  It is imaged even when all its doses were resumed (only
            # possible when a pinned cd_row went missing from the store).
            for item in self._iter_focus_aerials(
                    [nominal], layout, tile_px, guard_px, single_tile):
                handle_focus(*item)
            pending = [focus for focus in pending if focus != nominal]
        else:
            pending = [nominal] * (nominal in pending) + \
                [focus for focus in pending if focus != nominal]
        for item in self._iter_focus_aerials(pending, layout, tile_px,
                                             guard_px, single_tile):
            handle_focus(*item)
        elapsed = time.perf_counter() - start

        if store is not None and tile_cache is not None:
            # This run's counter deltas accumulate in the manifest, so a
            # resumed campaign's tile_cache block covers every run of it.
            delta = {key: value - cache_before[key] for key, value
                     in dataclasses.asdict(tile_cache.stats).items()}
            if delta.get("tiles"):
                store.record_tile_cache_stats(delta)

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
                            num_tiles=state["num_tiles"],
                            elapsed_s=elapsed,
                            aerials=aerials if keep_aerials else None,
                            computed_conditions=state["computed"],
                            skipped_conditions=skipped,
                            store_dir=store.root if store is not None else None)
