"""Render a stored campaign without recomputing anything.

A :class:`~repro.sweep.store.CampaignStore` directory is the durable product
of a process-window campaign: the manifest carries the campaign identity,
the pinned derived values and an inline CD per completed condition, and
optional ``aerial_f<focus>.npy`` memmaps carry the stitched aerials.  This
module turns that directory back into the human-facing report — CD table,
process-window summary, per-focus aerial thumbnails — **from disk alone**:
no engine is built, no kernel bank decomposed, no tile imaged (pinned by
``tests/test_campaign_report.py`` via engine call counting and
:class:`~repro.engine.cache.CacheStats`).

Partial campaigns render too: a store being appended to by a live (or
killed) sweep reports every completed condition, marks the missing ones and
states the completion fraction, so ``repro.cli campaign-report`` doubles as
a progress monitor for long campaigns.
"""

from __future__ import annotations

import glob
import html as _html
import json
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..optics.process_window import FocusExposurePoint, ProcessWindowResult
from ..utils.imaging import ascii_image, write_pgm
from .grid import FocusExposureGrid
from .store import CampaignStore, condition_id


@dataclass(frozen=True)
class CampaignReport:
    """Everything a stored campaign can say about itself, engine-free."""

    store_dir: str
    campaign: dict
    derived: dict
    completed: Dict[str, dict]
    grid: FocusExposureGrid
    #: Tile-result-cache counters accumulated by the sweep's runs (the
    #: manifest's optional ``tile_cache`` block); ``None`` when the campaign
    #: never ran with a cache attached.
    tile_cache: Optional[dict] = None

    @property
    def total_conditions(self) -> int:
        return len(self.grid)

    @property
    def completed_conditions(self) -> int:
        return sum(1 for focus, dose in self.grid.conditions()
                   if condition_id(focus, dose) in self.completed)

    @property
    def is_complete(self) -> bool:
        return self.completed_conditions == self.total_conditions

    def cd_matrix(self) -> Dict[float, Dict[float, Optional[float]]]:
        """``matrix[focus][dose]`` -> CD in nm, ``None`` when not yet computed."""
        matrix: Dict[float, Dict[float, Optional[float]]] = {}
        for focus in self.grid.focus_values_nm:
            row: Dict[float, Optional[float]] = {}
            for dose in self.grid.dose_values:
                entry = self.completed.get(condition_id(focus, dose))
                row[dose] = None if entry is None else float(entry["cd_nm"])
            matrix[focus] = row
        return matrix

    def window(self) -> Optional[ProcessWindowResult]:
        """The process window over the *completed* conditions.

        ``None`` until a target CD exists (pinned in ``derived`` by the
        sweep, or measurable once the nominal condition is on disk).
        """
        target = self.derived.get("target_cd_nm")
        if target is None:
            nominal = self.completed.get(condition_id(
                self.grid.nominal_focus_nm, self.grid.nominal_dose))
            if nominal is None or float(nominal["cd_nm"]) <= 0:
                return None
            target = float(nominal["cd_nm"])
        points = tuple(
            FocusExposurePoint(focus_nm=float(entry["focus_nm"]),
                               dose=float(entry["dose"]),
                               cd_nm=float(entry["cd_nm"]))
            for entry in self.completed.values())
        return ProcessWindowResult(points=points, target_cd_nm=float(target),
                                   tolerance=float(self.campaign["tolerance"]))

    def aerial_files(self) -> List[Tuple[str, str]]:
        """Stored per-focus aerial memmaps as ``(focus token, path)`` pairs."""
        pattern = os.path.join(self.store_dir, "aerial_f*.npy")
        pairs = []
        for path in sorted(glob.glob(pattern)):
            match = re.match(r"aerial_f(.+)\.npy$", os.path.basename(path))
            if match:
                pairs.append((match.group(1), path))
        return pairs


def load_campaign_report(store_dir: str) -> CampaignReport:
    """Load a campaign store's manifest into a :class:`CampaignReport`.

    Pure disk I/O: reads ``manifest.json`` (+ the completion log) and lists
    aerial files.  Raises :class:`FileNotFoundError` when ``store_dir`` has
    no manifest.
    """
    manifest = CampaignStore(store_dir).read_manifest()
    campaign = manifest.get("campaign", {})
    grid = FocusExposureGrid.from_sequences(
        campaign.get("focus_values_nm", ()), campaign.get("dose_values", ()))
    return CampaignReport(store_dir=str(store_dir), campaign=campaign,
                          derived=manifest.get("derived", {}),
                          completed=manifest.get("completed", {}), grid=grid,
                          tile_cache=manifest.get("tile_cache"))


def format_cd_table(grid: FocusExposureGrid,
                    matrix: Dict[float, Dict[float, Optional[float]]],
                    window: Optional[ProcessWindowResult]) -> str:
    """The focus-exposure matrix as a fixed-width text table (CDs in nm).

    ``matrix[focus][dose]`` is ``None`` for a condition not yet computed
    (printed ``-``); ``*`` marks a CD outside ``window``'s tolerance band.
    """
    doses = grid.dose_values
    lines = ["focus_nm \\ dose" + "".join(f"{dose:>10.3f}" for dose in doses)]
    complete = True
    for focus in grid.focus_values_nm:
        row = f"{focus:>15.1f}"
        for dose in doses:
            cd = matrix[focus][dose]
            if cd is None:
                complete = False
                row += f"{'-':>9} "
            else:
                marker = " "
                if window is not None and not window.in_spec(
                        FocusExposurePoint(focus, dose, cd)):
                    marker = "*"
                row += f"{cd:>9.1f}{marker}"
        lines.append(row)
    legend = "(* = outside the CD tolerance band"
    legend += ")" if complete else "; - = not yet computed)"
    lines.append(legend)
    return "\n".join(lines)


def format_summary(grid: FocusExposureGrid,
                   window: ProcessWindowResult) -> str:
    """Window metrics at the grid's nominal condition, one per line."""
    focus = grid.nominal_focus_nm
    dose = grid.nominal_dose
    return "\n".join([
        f"target CD       : {window.target_cd_nm:.1f} nm "
        f"(tolerance +/- {window.tolerance * 100:.0f}%)",
        f"window fraction : {window.window_fraction() * 100:.1f}% "
        f"of {len(window.points)} completed conditions in spec",
        f"depth of focus  : {window.depth_of_focus_nm(dose):.1f} nm "
        f"at dose {dose:g}",
        f"exposure latitude: {window.exposure_latitude(focus) * 100:.1f}% "
        f"at focus {focus:g} nm",
    ])


def format_tile_cache(counters: Mapping[str, int]) -> str:
    """One line of tile-result-cache counters (``TileCacheStats`` fields)."""
    tiles = int(counters.get("tiles", 0))
    served = sum(int(counters.get(key, 0))
                 for key in ("hits", "zero_hits", "disk_loads"))
    rate = served / tiles * 100 if tiles else 0.0
    return (f"{served}/{tiles} tiles served from cache ({rate:.1f}% hit "
            f"rate, {int(counters.get('misses', 0))} imaged)")


def render_campaign_report(report: CampaignReport,
                           thumbnail_width: int = 0) -> str:
    """The full text report: identity, progress, CD table, summary, thumbnails.

    ``thumbnail_width`` > 0 renders each stored per-focus aerial memmap as
    ASCII art that wide (the memmap is strided down to thumbnail scale
    before any full-array work happens, so huge aerials stay on disk);
    0 lists the files without rendering.
    """
    campaign = report.campaign
    shape = campaign.get("layout_shape", ["?", "?"])
    lines = [
        f"campaign store  : {report.store_dir}",
        f"layout          : {shape[0]} x {shape[1]} px "
        f"(digest {str(campaign.get('layout_sha256', '?'))[:12]}...)",
        f"optics          : {str(campaign.get('optics_fingerprint', '?'))[:12]}...",
        f"grid            : {len(report.grid.focus_values_nm)} focus x "
        f"{len(report.grid.dose_values)} dose, "
        f"tolerance +/- {float(campaign.get('tolerance', 0)) * 100:.0f}%",
        f"progress        : {report.completed_conditions}/"
        f"{report.total_conditions} conditions complete"
        + ("" if report.is_complete else " (campaign in progress)"),
    ]
    if report.tile_cache:
        lines.append(f"tile cache      : {format_tile_cache(report.tile_cache)}")
    lines.append("")
    window = report.window()
    lines.append(format_cd_table(report.grid, report.cd_matrix(), window))
    if window is not None and window.points:
        lines.append("")
        lines.append(format_summary(report.grid, window))
    aerials = report.aerial_files()
    if aerials:
        lines.append("")
        lines.append(f"stored aerials  : {len(aerials)} per-focus memmap(s)")
        for token, path in aerials:
            lines.append(f"  focus {token}: {path}")
            if thumbnail_width > 0:
                aerial = np.load(path, mmap_mode="r")
                # Stride down before any dense work: ascii_image normalises
                # over its whole input, which must stay thumbnail-sized.
                step = max(1, aerial.shape[1] // (2 * thumbnail_width))
                lines.append(ascii_image(np.asarray(aerial[::step, ::step]),
                                         width=thumbnail_width))
    return "\n".join(lines)


def report_as_dict(report: CampaignReport) -> dict:
    """The machine-facing report: everything the text report says, as data.

    The same zero-recompute path (manifest + file listing only) rendered
    into plain JSON-serialisable types; the campaign service's
    ``GET /campaigns/{id}/report`` and ``campaign-report --format json``
    both emit exactly this structure.
    """
    window = report.window()
    matrix = report.cd_matrix()
    window_block = None
    if window is not None and window.points:
        focus = report.grid.nominal_focus_nm
        dose = report.grid.nominal_dose
        window_block = {
            "target_cd_nm": float(window.target_cd_nm),
            "tolerance": float(window.tolerance),
            "window_fraction": float(window.window_fraction()),
            "depth_of_focus_nm": float(window.depth_of_focus_nm(dose)),
            "exposure_latitude": float(window.exposure_latitude(focus)),
        }
    return {
        "store_dir": report.store_dir,
        "campaign": dict(report.campaign),
        "derived": dict(report.derived),
        "grid": {
            "focus_values_nm": [float(f) for f in report.grid.focus_values_nm],
            "dose_values": [float(d) for d in report.grid.dose_values],
        },
        "progress": {
            "completed": report.completed_conditions,
            "total": report.total_conditions,
            "complete": report.is_complete,
        },
        # Rows follow grid.focus_values_nm, columns grid.dose_values;
        # null = condition not yet computed.
        "cd_matrix": [[matrix[focus][dose] for dose in report.grid.dose_values]
                      for focus in report.grid.focus_values_nm],
        "in_spec": [[None if matrix[focus][dose] is None or window is None
                     else bool(window.in_spec(FocusExposurePoint(
                         focus, dose, matrix[focus][dose])))
                     for dose in report.grid.dose_values]
                    for focus in report.grid.focus_values_nm],
        "window": window_block,
        "tile_cache": dict(report.tile_cache) if report.tile_cache else None,
        "aerials": [token for token, _ in report.aerial_files()],
    }


def render_campaign_report_json(report: CampaignReport) -> str:
    """:func:`report_as_dict` as indented JSON text."""
    return json.dumps(report_as_dict(report), indent=2, sort_keys=True)


def render_campaign_report_html(report: CampaignReport) -> str:
    """A dependency-free, self-contained HTML page for a stored campaign.

    The browsable shape of the same zero-recompute data: identity and
    progress up top, the focus x dose CD matrix as a table (out-of-spec
    cells highlighted, pending cells dimmed), the window summary, and links
    to any stored aerial files (the service serves them as thumbnails).
    """
    data = report_as_dict(report)
    window = data["window"]
    campaign = data["campaign"]
    shape = campaign.get("layout_shape", ["?", "?"])
    doses = data["grid"]["dose_values"]
    foci = data["grid"]["focus_values_nm"]

    head = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>campaign {_html.escape(os.path.basename(report.store_dir) or report.store_dir)}</title>",
        "<style>",
        "body{font-family:sans-serif;margin:2em;}",
        "table{border-collapse:collapse;}",
        "td,th{border:1px solid #999;padding:0.3em 0.7em;text-align:right;}",
        "td.out{background:#fdd;}",
        "td.pending{color:#999;background:#f5f5f5;}",
        "dt{font-weight:bold;} dd{margin:0 0 0.5em 0;}",
        "</style></head><body>",
        f"<h1>Process-window campaign</h1>",
        "<dl>",
        f"<dt>store</dt><dd>{_html.escape(report.store_dir)}</dd>",
        f"<dt>layout</dt><dd>{shape[0]} &times; {shape[1]} px "
        f"(digest {_html.escape(str(campaign.get('layout_sha256', '?'))[:12])}&hellip;)</dd>",
        f"<dt>optics</dt><dd>{_html.escape(str(campaign.get('optics_fingerprint', '?'))[:12])}&hellip;</dd>",
        f"<dt>progress</dt><dd>{data['progress']['completed']}/"
        f"{data['progress']['total']} conditions complete"
        + ("" if data["progress"]["complete"] else " (campaign in progress)")
        + "</dd>",
        "</dl>",
    ]

    table = ["<table><thead><tr><th>focus_nm \\ dose</th>"]
    table += [f"<th>{dose:g}</th>" for dose in doses]
    table.append("</tr></thead><tbody>")
    for row_index, focus in enumerate(foci):
        cells = [f"<tr><th>{focus:g}</th>"]
        for col_index in range(len(doses)):
            cd = data["cd_matrix"][row_index][col_index]
            in_spec = data["in_spec"][row_index][col_index]
            if cd is None:
                cells.append("<td class='pending'>&ndash;</td>")
            else:
                css = " class='out'" if in_spec is False else ""
                cells.append(f"<td{css}>{cd:.1f}</td>")
        cells.append("</tr>")
        table.append("".join(cells))
    table.append("</tbody></table>")
    table.append("<p>CD in nm; red = outside the tolerance band, "
                 "dimmed = not yet computed.</p>")

    tail = []
    if window is not None:
        tail += [
            "<h2>Window summary</h2><dl>",
            f"<dt>target CD</dt><dd>{window['target_cd_nm']:.1f} nm "
            f"(tolerance &plusmn; {window['tolerance'] * 100:.0f}%)</dd>",
            f"<dt>window fraction</dt>"
            f"<dd>{window['window_fraction'] * 100:.1f}%</dd>",
            f"<dt>depth of focus</dt>"
            f"<dd>{window['depth_of_focus_nm']:.1f} nm</dd>",
            f"<dt>exposure latitude</dt>"
            f"<dd>{window['exposure_latitude'] * 100:.1f}%</dd>",
            "</dl>",
        ]
    if data["tile_cache"]:
        tail.append(f"<p>tile cache: {format_tile_cache(data['tile_cache'])}."
                    "</p>")
    if data["aerials"]:
        tail.append("<h2>Stored aerials</h2><ul>")
        tail += [f"<li><a href='thumbnails/{_html.escape(token)}'>"
                 f"focus {_html.escape(token)}</a></li>"
                 for token in data["aerials"]]
        tail.append("</ul>")
    tail.append("</body></html>")
    return "\n".join(head + table + tail)


def save_aerial_thumbnails(report: CampaignReport,
                           directory: str) -> Dict[str, str]:
    """Write each stored aerial as an 8-bit PGM thumbnail; token -> path.

    Aerials wider than 512 px are strided down to thumbnail scale **before**
    any dense work — like the ASCII rendering, a multi-GB memmapped aerial
    stays on disk and only the sampled pixels are read.
    """
    paths: Dict[str, str] = {}
    for token, path in report.aerial_files():
        aerial = np.load(path, mmap_mode="r")
        step = max(1, -(-aerial.shape[1] // 512))  # ceil
        paths[token] = write_pgm(
            np.asarray(aerial[::step, ::step], dtype=float),
            os.path.join(directory, f"aerial_f{token}.pgm"))
    return paths
