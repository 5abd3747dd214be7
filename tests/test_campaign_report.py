"""Campaign reporting (repro.sweep.report + repro.cli campaign-report).

The defining property — rendering a stored campaign performs **zero
recomputation** — is pinned two ways: engine construction is poisoned while
the report renders, and the kernel cache's ``CacheStats`` counters must not
move.
"""

import os
import types

import numpy as np
import pytest

import repro.engine.execution
from repro.cli import main
from repro.engine.cache import KernelBankCache
from repro.optics.simulator import OpticsConfig
from repro.sweep import (
    CampaignStore,
    FocusExposureGrid,
    ProcessWindowSweep,
    load_campaign_report,
    render_campaign_report,
    save_aerial_thumbnails,
)

GRID = FocusExposureGrid(focus_values_nm=(-40.0, 0.0, 40.0),
                         dose_values=(0.95, 1.0, 1.05))


def make_mask() -> np.ndarray:
    mask = np.zeros((32, 32))
    mask[8:24, 4:28] = 1.0
    return mask


@pytest.fixture(scope="module")
def completed_store(tmp_path_factory) -> str:
    """One real campaign, persisted with aerial memmaps."""
    store_dir = str(tmp_path_factory.mktemp("campaign") / "store")
    config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
    store = CampaignStore(store_dir, store_aerials=True)
    ProcessWindowSweep(config).run(make_mask(), grid=GRID, store=store)
    return store_dir


class TestCampaignReport:
    def test_loads_identity_grid_and_completion(self, completed_store):
        report = load_campaign_report(completed_store)
        assert report.grid.focus_values_nm == GRID.focus_values_nm
        assert report.grid.dose_values == GRID.dose_values
        assert report.is_complete
        assert report.completed_conditions == len(GRID)
        assert report.campaign["layout_shape"] == [32, 32]
        window = report.window()
        assert window is not None and len(window.points) == len(GRID)

    def test_render_contains_table_summary_and_aerials(self, completed_store):
        report = load_campaign_report(completed_store)
        text = render_campaign_report(report, thumbnail_width=24)
        assert "9/9 conditions complete" in text
        assert "focus_nm \\ dose" in text
        assert "target CD" in text
        assert "window fraction" in text
        assert "stored aerials" in text and "3 per-focus memmap(s)" in text

    def test_outcome_prints_what_the_report_renders(self, tmp_path):
        """One renderer: the sweep's own table and summary appear verbatim
        in the stored campaign's text report."""
        store_dir = str(tmp_path / "store")
        config = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        outcome = ProcessWindowSweep(config).run(make_mask(), grid=GRID,
                                                 store=store_dir)
        text = render_campaign_report(load_campaign_report(store_dir))
        assert outcome.cd_table() in text
        assert outcome.summary() in text

    def test_zero_recomputation(self, completed_store, monkeypatch):
        """No engine is built, no bank decomposed, no tile imaged."""
        calls = []

        def poisoned(self, *args, **kwargs):
            calls.append("engine")
            raise AssertionError("campaign-report must not build an engine")

        monkeypatch.setattr(repro.engine.execution.ExecutionEngine,
                            "__init__", poisoned)
        cache = KernelBankCache()
        report = load_campaign_report(completed_store)
        render_campaign_report(report, thumbnail_width=16)
        assert calls == []
        assert cache.stats.decompositions == 0

    def test_partial_campaign_renders_progress(self, tmp_path):
        """A store a killed (or live) sweep left behind still reports."""
        identity = CampaignStore.campaign_identity(
            make_mask(), GRID.focus_values_nm, GRID.dose_values, 0.1,
            "fingerprint")
        store = CampaignStore(str(tmp_path / "partial"))
        store.begin(identity, resume=True)
        store.set_derived("target_cd_nm", 100.0)
        store.record(0.0, 1.0, 100.0)
        store.record(0.0, 0.95, 120.0)
        report = load_campaign_report(str(tmp_path / "partial"))
        assert not report.is_complete
        assert report.completed_conditions == 2
        matrix = report.cd_matrix()
        assert matrix[0.0][1.0] == 100.0
        assert matrix[-40.0][1.0] is None
        text = render_campaign_report(report)
        assert "2/9 conditions complete (campaign in progress)" in text
        assert "-" in text and "not yet computed" in text
        assert "120.0*" in text  # out of the 10% band around 100 nm

    def test_window_is_none_without_target(self, tmp_path):
        identity = CampaignStore.campaign_identity(
            make_mask(), GRID.focus_values_nm, GRID.dose_values, 0.1,
            "fingerprint")
        store = CampaignStore(str(tmp_path / "no-target"))
        store.begin(identity, resume=True)
        store.record(-40.0, 1.0, 90.0)  # nominal condition missing
        report = load_campaign_report(str(tmp_path / "no-target"))
        assert report.window() is None
        text = render_campaign_report(report)  # renders without a summary
        assert "target CD" not in text

    def test_thumbnails_written_as_pgm(self, completed_store, tmp_path):
        report = load_campaign_report(completed_store)
        paths = save_aerial_thumbnails(report, str(tmp_path / "thumbs"))
        assert len(paths) == len(GRID.focus_values_nm)
        for path in paths.values():
            with open(path, "rb") as handle:
                assert handle.read(2) == b"P5"

    def test_thumbnails_are_downsampled(self, tmp_path):
        """Huge memmapped aerials must not be materialised at full size:
        one wider than 512 px is strided down to at most 512."""
        aerial = str(tmp_path / "aerial_f0.npy")
        np.save(aerial, np.zeros((3, 1100)))
        report = types.SimpleNamespace(aerial_files=lambda: [("0", aerial)])
        paths = save_aerial_thumbnails(report, str(tmp_path / "small"))
        with open(paths["0"], "rb") as handle:
            header = handle.readline() + handle.readline()
        assert header.split()[1:] == [b"367", b"1"]  # every third pixel


class TestCampaignReportCLI:
    def test_cli_renders_stored_campaign(self, completed_store, capsys):
        assert main(["campaign-report", "--store", completed_store,
                     "--thumbnail-width", "20"]) == 0
        out = capsys.readouterr().out
        assert "9/9 conditions complete" in out
        assert "focus_nm \\ dose" in out

    def test_cli_zero_engine_calls(self, completed_store, capsys,
                                   monkeypatch):
        def poisoned(self, *args, **kwargs):
            raise AssertionError("campaign-report must not build an engine")

        monkeypatch.setattr(repro.engine.execution.ExecutionEngine,
                            "__init__", poisoned)
        assert main(["campaign-report", "--store", completed_store]) == 0

    def test_cli_thumbnail_directory(self, completed_store, tmp_path,
                                     capsys):
        thumbs = str(tmp_path / "thumbs")
        assert main(["campaign-report", "--store", completed_store,
                     "--thumbnails", thumbs]) == 0
        assert "PGM thumbnail(s) written" in capsys.readouterr().out
        assert len(os.listdir(thumbs)) == len(GRID.focus_values_nm)

    def test_cli_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["campaign-report", "--store",
                     str(tmp_path / "nowhere")]) == 2
        assert "error" in capsys.readouterr().err


class TestReportFormats:
    """--format json|html: the same zero-recompute data, machine-readable."""

    def test_report_as_dict_structure(self, completed_store):
        from repro.sweep import report_as_dict

        data = report_as_dict(load_campaign_report(completed_store))
        assert data["grid"]["focus_values_nm"] == list(GRID.focus_values_nm)
        assert data["grid"]["dose_values"] == list(GRID.dose_values)
        assert data["progress"] == {"completed": 9, "total": 9,
                                    "complete": True}
        assert len(data["cd_matrix"]) == len(GRID.focus_values_nm)
        assert all(len(row) == len(GRID.dose_values)
                   for row in data["cd_matrix"])
        assert data["window"] is not None
        assert data["window"]["target_cd_nm"] > 0
        assert len(data["aerials"]) == len(GRID.focus_values_nm)

    def test_json_round_trips_and_marks_pending_null(self, tmp_path):
        import json as json_module

        from repro.sweep import render_campaign_report_json

        identity = CampaignStore.campaign_identity(
            make_mask(), GRID.focus_values_nm, GRID.dose_values, 0.1,
            "fingerprint")
        store = CampaignStore(str(tmp_path / "partial"))
        store.begin(identity, resume=True)
        store.record(0.0, 1.0, 100.0)
        rendered = render_campaign_report_json(
            load_campaign_report(str(tmp_path / "partial")))
        data = json_module.loads(rendered)
        assert data["progress"]["complete"] is False
        matrix = data["cd_matrix"]
        assert matrix[1][1] == 100.0  # focus 0.0, dose 1.0
        assert matrix[0][0] is None   # pending cells are null

    def test_html_is_self_contained(self, completed_store):
        from repro.sweep import render_campaign_report_html

        html = render_campaign_report_html(
            load_campaign_report(completed_store))
        assert html.startswith("<!DOCTYPE html>")
        assert "<table" in html and "</html>" in html
        assert "thumbnails/" in html  # aerial links the service serves
        assert "src=" not in html     # no external resources

    def test_cli_format_json(self, completed_store, capsys):
        import json as json_module

        assert main(["campaign-report", "--store", completed_store,
                     "--format", "json"]) == 0
        data = json_module.loads(capsys.readouterr().out)
        assert data["progress"]["complete"] is True

    def test_cli_format_html(self, completed_store, capsys):
        assert main(["campaign-report", "--store", completed_store,
                     "--format", "html"]) == 0
        assert capsys.readouterr().out.startswith("<!DOCTYPE html>")

    def test_formats_also_zero_recompute(self, completed_store, monkeypatch):
        def poisoned(self, *args, **kwargs):
            raise AssertionError("campaign-report must not build an engine")

        monkeypatch.setattr(repro.engine.execution.ExecutionEngine,
                            "__init__", poisoned)
        assert main(["campaign-report", "--store", completed_store,
                     "--format", "json"]) == 0
        assert main(["campaign-report", "--store", completed_store,
                     "--format", "html"]) == 0


class TestTileCacheLine:
    def test_served_counts_hits_zero_hits_and_disk_loads(self):
        from repro.sweep.report import format_tile_cache

        line = format_tile_cache({"tiles": 10, "hits": 3, "zero_hits": 1,
                                  "disk_loads": 2, "misses": 4})
        assert line == ("6/10 tiles served from cache (60.0% hit rate, "
                        "4 imaged)")

    def test_no_tiles_is_a_zero_rate(self):
        from repro.sweep.report import format_tile_cache

        assert format_tile_cache({}) == (
            "0/0 tiles served from cache (0.0% hit rate, 0 imaged)")
