"""Sweep orchestration: process-window qualification campaigns over the engine.

The engine layer (:mod:`repro.engine`) makes one imaging condition fast; this
package makes *campaigns* fast.  A process-window qualification images the
same layout under a focus x dose grid — the canonical heavy workload of a
production lithography service — and this layer:

* enumerates the grid (:class:`FocusExposureGrid`),
* derives one kernel bank per focus setting through the shared
  :class:`~repro.engine.cache.KernelBankCache` (dose never touches the
  kernels, so an ``F x D`` campaign costs ``F`` banks, all persisted to the
  cache dir for later runs),
* images each focus with one ``image_layout`` pass of a
  :class:`~repro.engine.sharded.ShardedExecutor` through the vectorised
  batched core, which shares each tile batch out over the worker threads,
* extracts CDs via :func:`repro.optics.process_window.measure_cd` and returns
  the standard :class:`~repro.optics.process_window.ProcessWindowResult`,
* persists every condition to a resumable :class:`CampaignStore`
  (``store=`` / ``resume=``) and renders stored campaigns back into reports
  with zero recomputation (:func:`load_campaign_report` /
  :func:`render_campaign_report`, CLI ``repro.cli campaign-report``).

Usage
-----
The grid is pure data; campaigns run through :class:`ProcessWindowSweep`:

>>> from repro.sweep import FocusExposureGrid
>>> grid = FocusExposureGrid(focus_values_nm=(-40.0, 0.0, 40.0),
...                          dose_values=(0.95, 1.0, 1.05))
>>> len(grid), grid.nominal_focus_nm, grid.nominal_dose
(9, 0.0, 1.0)
>>> grid.conditions()[:2]                    # focus-major imaging order
[(-40.0, 0.95), (-40.0, 1.0)]

Condition identity is exact (no float rounding ambiguity between runs):

>>> from repro.sweep import condition_id
>>> condition_id(-40.0, 1.05)
'f-40.0_d1.05'

A full campaign is then ``ProcessWindowSweep(config).run(layout, grid=grid,
store="campaign_dir")`` — ``layout`` being a dense raster or a windowed
:mod:`repro.layout` reader — and ``run(..., resume=True)`` against the same
store recomputes only what is missing.
"""

from .grid import FocusExposureGrid
from .process_window import ProcessWindowSweep, SweepOutcome
from .report import (
    CampaignReport,
    load_campaign_report,
    render_campaign_report,
    render_campaign_report_html,
    render_campaign_report_json,
    report_as_dict,
    save_aerial_thumbnails,
)
from .store import CampaignIdentityError, CampaignStore, condition_id, layout_digest

__all__ = ["FocusExposureGrid", "ProcessWindowSweep", "SweepOutcome",
           "CampaignStore", "CampaignIdentityError", "condition_id",
           "layout_digest",
           "CampaignReport", "load_campaign_report", "render_campaign_report",
           "render_campaign_report_json", "render_campaign_report_html",
           "report_as_dict", "save_aerial_thumbnails"]
