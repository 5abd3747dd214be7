"""Tests for the disk-backed campaign store (repro.sweep.store) + resumability.

Pinned guarantees:

* every completed condition persists immediately and atomically — the
  manifest never references a half-written record,
* a campaign interrupted after ``k`` of ``F x D`` conditions re-runs
  computing **exactly** the remaining ``F x D - k`` (and nothing on a third
  run), with the resumed window identical to an uninterrupted campaign,
* the auto-tracked CD row, the auto-measured target CD and the resist
  threshold are pinned in the manifest, so resumed runs measure the same
  feature the same way,
* a store refuses a *different* campaign (layout / grid / optics /
  tolerance / resist threshold changes) and refuses silent reuse without
  ``resume=True``,
* a store written when every condition also had a ``cond_<id>.npz`` record
  resumes and reports as before.
"""

import dataclasses
import glob
import json
import os

import numpy as np
import pytest

from repro.engine import ShardedExecutor
from repro.layout import array_digest
from repro.sweep import (
    CampaignIdentityError,
    CampaignStore,
    FocusExposureGrid,
    ProcessWindowSweep,
    condition_id,
    load_campaign_report,
    render_campaign_report,
    report_as_dict,
)
from repro.optics import OpticsConfig
from repro.optics.source import CircularSource

TILE = 48
CONFIG = OpticsConfig(tile_size_px=TILE, pixel_size_nm=20.0, max_socs_order=12)
SOURCE = CircularSource(sigma=0.6)
GRID = FocusExposureGrid((-100.0, 0.0, 100.0), (0.9, 1.0, 1.1))


@pytest.fixture(scope="module")
def line_mask():
    mask = np.zeros((TILE, TILE))
    mask[4:-4, TILE // 2 - 4: TILE // 2 + 4] = 1.0
    return mask


@pytest.fixture(scope="module")
def baseline(line_mask):
    sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
    return sweep.run(line_mask, grid=GRID, tolerance=0.25)


class TestCampaignStoreUnit:
    IDENTITY = {"layout_sha256": "abc", "layout_shape": [4, 4],
                "optics_fingerprint": "fp", "focus_values_nm": [0.0],
                "dose_values": [1.0], "tolerance": 0.1}

    def test_begin_fresh_and_record(self, tmp_path):
        store = CampaignStore(str(tmp_path / "s"))
        assert store.begin(self.IDENTITY) == {}
        store.record(0.0, 1.0, cd_nm=42.0)
        assert len(store) == 1
        assert store.completed()[condition_id(0.0, 1.0)] == {
            "focus_nm": 0.0, "dose": 1.0, "cd_nm": 42.0}
        # The log line is the whole record: no per-condition file.
        assert sorted(os.listdir(store.root)) == ["completed.log",
                                                  "manifest.json"]
        # A second store over the same dir resumes the completed map.
        reopened = CampaignStore(str(tmp_path / "s"))
        assert set(reopened.begin(self.IDENTITY)) == {condition_id(0.0, 1.0)}

    def test_record_is_durable_via_append_only_log(self, tmp_path):
        """record() appends to completed.log (O(1)); the next begin()
        consolidates the log into an atomic manifest rewrite."""
        store = CampaignStore(str(tmp_path / "s"))
        store.begin(self.IDENTITY)
        store.record(0.0, 1.0, 1.0)
        assert os.path.exists(store.completion_log_path)
        with open(store.manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["version"] == 1
        assert manifest["campaign"] == self.IDENTITY
        assert manifest["completed"] == {}  # not rewritten per condition

        reopened = CampaignStore(str(tmp_path / "s"))
        completed = reopened.begin(self.IDENTITY)
        assert completed[condition_id(0.0, 1.0)]["cd_nm"] == 1.0
        # Consolidated: the manifest file now owns the entry, the log is gone.
        assert not os.path.exists(store.completion_log_path)
        with open(store.manifest_path, encoding="utf-8") as handle:
            assert condition_id(0.0, 1.0) in json.load(handle)["completed"]

    def test_torn_log_tail_is_ignored(self, tmp_path):
        store = CampaignStore(str(tmp_path / "s"))
        store.begin(self.IDENTITY)
        store.record(0.0, 1.0, 1.0)
        with open(store.completion_log_path, "a", encoding="utf-8") as handle:
            handle.write('{"id": "torn_condi')  # killed mid-append
        reopened = CampaignStore(str(tmp_path / "s"))
        assert set(reopened.begin(self.IDENTITY)) == {condition_id(0.0, 1.0)}

    def test_identity_mismatch_raises(self, tmp_path):
        store = CampaignStore(str(tmp_path / "s"))
        store.begin(self.IDENTITY)
        other = dict(self.IDENTITY, tolerance=0.2)
        with pytest.raises(CampaignIdentityError):
            CampaignStore(str(tmp_path / "s")).begin(other)

    def test_resume_false_refuses_existing_manifest(self, tmp_path):
        store = CampaignStore(str(tmp_path / "s"))
        store.begin(self.IDENTITY)
        with pytest.raises(CampaignIdentityError):
            CampaignStore(str(tmp_path / "s")).begin(self.IDENTITY,
                                                     resume=False)

    def test_derived_values_persist(self, tmp_path):
        store = CampaignStore(str(tmp_path / "s"))
        store.begin(self.IDENTITY)
        assert store.get_derived("cd_row") is None
        store.set_derived("cd_row", 17)
        reopened = CampaignStore(str(tmp_path / "s"))
        reopened.begin(self.IDENTITY)
        assert reopened.get_derived("cd_row") == 17

    def test_requires_begin(self, tmp_path):
        store = CampaignStore(str(tmp_path / "s"))
        with pytest.raises(RuntimeError):
            store.record(0.0, 1.0, 1.0)

    def test_condition_id_is_exact_and_filename_safe(self):
        assert condition_id(0.0, 1.0) == condition_id(0.0, 1.0)
        assert condition_id(0.1, 1.0) != condition_id(
            0.1 + 1e-12, 1.0)  # repr-exact, no rounding collisions
        for token in (condition_id(-80.0, 0.9), condition_id(1e-3, 1.25)):
            assert "/" not in token and " " not in token

    def test_layout_digest_depends_on_content_and_shape(self):
        a = np.zeros((4, 4))
        b = np.zeros((2, 8))
        assert array_digest(a) != array_digest(b)
        c = a.copy()
        c[0, 0] = 1.0
        assert array_digest(a) != array_digest(c)
        assert array_digest(a) == array_digest(np.zeros((4, 4)))

    def test_save_and_load_aerial(self, tmp_path):
        store = CampaignStore(str(tmp_path / "s"), store_aerials=True)
        store.begin(self.IDENTITY)
        aerial = np.arange(12.0).reshape(3, 4)
        assert store.save_aerial(-40.0, aerial) is not None
        np.testing.assert_array_equal(
            np.load(store.aerial_path(-40.0), mmap_mode="r"), aerial)
        disabled = CampaignStore(str(tmp_path / "t"))
        disabled.begin(self.IDENTITY)
        assert disabled.save_aerial(0.0, aerial) is None


class TestSweepResumability:
    class Killed(Exception):
        pass

    def _killer(self, after: int):
        calls = []

        def progress(focus, dose, cd):
            calls.append((focus, dose, cd))
            if len(calls) >= after:
                raise self.Killed()

        return progress, calls

    def test_killed_sweep_resumes_exactly_the_remainder(
            self, line_mask, baseline, tmp_path):
        k = 4
        store_dir = str(tmp_path / "campaign")
        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        progress, calls = self._killer(k)
        with pytest.raises(self.Killed):
            sweep.run(line_mask, grid=GRID, tolerance=0.25, store=store_dir,
                      progress=progress)
        assert len(calls) == k

        resumed = sweep.run(line_mask, grid=GRID, tolerance=0.25,
                            store=store_dir)
        assert resumed.computed_conditions == len(GRID) - k
        assert resumed.skipped_conditions == k
        assert resumed.window == baseline.window
        assert resumed.store_dir == store_dir

        # A third run recomputes nothing at all.
        again = sweep.run(line_mask, grid=GRID, tolerance=0.25,
                          store=store_dir)
        assert again.computed_conditions == 0
        assert again.skipped_conditions == len(GRID)
        assert again.window == baseline.window

    def test_kill_before_any_record_still_resumes(self, line_mask, baseline,
                                                  tmp_path):
        store_dir = str(tmp_path / "campaign")
        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        progress, _ = self._killer(1)
        with pytest.raises(self.Killed):
            sweep.run(line_mask, grid=GRID, tolerance=0.25, store=store_dir,
                      progress=progress)
        resumed = sweep.run(line_mask, grid=GRID, tolerance=0.25,
                            store=store_dir)
        # The first condition DID persist before the progress hook raised.
        assert resumed.computed_conditions == len(GRID) - 1
        assert resumed.window == baseline.window

    def test_resumed_run_pins_cd_row_and_target(self, line_mask, tmp_path):
        store_dir = str(tmp_path / "campaign")
        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        progress, _ = self._killer(2)
        with pytest.raises(self.Killed):
            sweep.run(line_mask, grid=GRID, tolerance=0.25, store=store_dir,
                      progress=progress)
        store = CampaignStore(store_dir)
        store.begin(CampaignStore.campaign_identity(
            np.asarray(line_mask, dtype=float), GRID.focus_values_nm,
            GRID.dose_values, 0.25,
            sweep.base_spec.fingerprint()))
        assert store.get_derived("cd_row") is not None

    def test_different_guard_is_a_different_campaign(self, tmp_path):
        """Guard width changes seam behaviour and hence CDs: a resume under
        different tiling must be refused, never silently mixed."""
        layout = np.zeros((80, 110))
        layout[10:70, 20:28] = 1.0
        grid = FocusExposureGrid((0.0,), (1.0,))
        store_dir = str(tmp_path / "campaign")
        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        sweep.run(layout, grid=grid, tolerance=0.3, guard_px=8,
                  store=store_dir)
        with pytest.raises(CampaignIdentityError):
            sweep.run(layout, grid=grid, tolerance=0.3, guard_px=16,
                      store=store_dir)

    def test_a_resume_under_another_resist_threshold_is_refused(
            self, line_mask, tmp_path):
        """The optics fingerprint stops at the kernel bank, so the resist
        threshold is pinned beside it: resuming under another threshold must
        fail, not report the first threshold's CDs as its own."""
        store_dir = str(tmp_path / "campaign")
        grid = FocusExposureGrid((0.0,), (1.0,))
        ProcessWindowSweep(CONFIG, source=SOURCE).run(
            line_mask, grid=grid, tolerance=0.25, store=store_dir)
        other = ProcessWindowSweep(
            dataclasses.replace(CONFIG, resist_threshold=0.4), source=SOURCE)
        with pytest.raises(CampaignIdentityError,
                           match=r"threshold 0\.225, not 0\.4"):
            other.run(line_mask, grid=grid, tolerance=0.25, store=store_dir)
        manifest = CampaignStore(store_dir).read_manifest()
        assert manifest["derived"]["resist_threshold"] == 0.225

    def test_a_store_with_per_condition_files_resumes_and_reports(
            self, line_mask, tmp_path):
        """The layout written while every condition also had a
        ``cond_<id>.npz`` record and a ``"file"`` key: it resumes with
        nothing computed, reports the same, and is pinned to its resist
        threshold on that run."""
        store_dir = str(tmp_path / "campaign")
        grid = FocusExposureGrid((0.0, 100.0), (0.9, 1.0))
        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        first = sweep.run(line_mask, grid=grid, tolerance=0.25,
                          store=store_dir)
        store = CampaignStore(store_dir)
        manifest = store.read_manifest()
        del manifest["derived"]["resist_threshold"]
        for cond, entry in manifest["completed"].items():
            entry["file"] = f"cond_{cond}.npz"
            threshold = CONFIG.resist_threshold / entry["dose"]
            np.savez_compressed(
                os.path.join(store_dir, entry["file"]),
                focus_nm=np.asarray(entry["focus_nm"]),
                dose=np.asarray(entry["dose"]),
                cd_nm=np.asarray(entry["cd_nm"]),
                threshold=np.asarray(threshold))
        with open(store.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        os.unlink(store.completion_log_path)
        text = render_campaign_report(load_campaign_report(store_dir))
        data = report_as_dict(load_campaign_report(store_dir))

        resumed = sweep.run(line_mask, grid=grid, tolerance=0.25,
                            store=store_dir)
        assert resumed.computed_conditions == 0
        assert resumed.window == first.window
        report = load_campaign_report(store_dir)
        assert render_campaign_report(report) == text
        pinned = report_as_dict(report)
        assert pinned["derived"].pop("resist_threshold") == 0.225
        assert pinned == data
        assert len(glob.glob(os.path.join(store_dir, "cond_*.npz"))) == 4

    def test_different_layout_is_a_different_campaign(self, line_mask,
                                                      tmp_path):
        store_dir = str(tmp_path / "campaign")
        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        sweep.run(line_mask, grid=GRID, tolerance=0.25, store=store_dir)
        other = np.roll(line_mask, 3, axis=1)
        with pytest.raises(CampaignIdentityError):
            sweep.run(other, grid=GRID, tolerance=0.25, store=store_dir)

    def test_store_with_streaming_and_sharded_campaign(self, baseline,
                                                       tmp_path):
        """Store + multi-tile layout in bounded batches, through an
        executor with its own kernel cache."""
        layout = np.zeros((80, 110))
        layout[10:70, 20:28] = 1.0
        layout[30:38, 40:100] = 1.0
        grid = FocusExposureGrid((0.0, 120.0), (0.9, 1.1))
        serial = ProcessWindowSweep(CONFIG, source=SOURCE)
        reference = serial.run(layout, grid=grid, tolerance=0.3, guard_px=10)

        store_dir = str(tmp_path / "campaign")
        cache_dir = str(tmp_path / "cache")
        with ShardedExecutor(cache_dir=cache_dir) as executor:
            sweep = ProcessWindowSweep(CONFIG, source=SOURCE,
                                       executor=executor)
            outcome = sweep.run(layout, grid=grid, tolerance=0.3,
                                guard_px=10, store=store_dir)
        assert outcome.window == reference.window
        assert outcome.computed_conditions == len(grid)

        resumed = serial.run(layout, grid=grid, tolerance=0.3, guard_px=10,
                             store=store_dir)
        assert resumed.computed_conditions == 0
        assert resumed.window == reference.window

    def test_store_aerials_roundtrip(self, line_mask, tmp_path):
        store = CampaignStore(str(tmp_path / "campaign"), store_aerials=True)
        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        outcome = sweep.run(line_mask, grid=FocusExposureGrid((0.0,), (1.0,)),
                            tolerance=0.25, store=store, keep_aerials=True)
        np.testing.assert_array_equal(
            np.load(store.aerial_path(0.0), mmap_mode="r"),
            outcome.aerials[0.0])
