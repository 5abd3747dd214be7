"""Tests for the disk-backed campaign store (repro.sweep.store) + resumability.

Pinned guarantees:

* every completed condition persists immediately and atomically — the
  manifest never references a half-written record,
* a campaign interrupted after ``k`` of ``F x D`` conditions re-runs
  computing **exactly** the remaining ``F x D - k`` (and nothing on a third
  run), with the resumed window identical to an uninterrupted campaign,
* the auto-tracked CD row and the auto-measured target CD are pinned in the
  manifest, so resumed runs measure the same feature,
* a store refuses a *different* campaign (layout / grid / optics /
  tolerance changes) and refuses silent reuse without ``resume=True``.
"""

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
        store.record(0.0, 1.0, cd_nm=42.0, threshold=0.225)
        assert len(store) == 1
        entry = store.completed()[condition_id(0.0, 1.0)]
        assert entry["cd_nm"] == 42.0
        record = store.load_record(0.0, 1.0)
        assert record["cd_nm"] == 42.0 and record["threshold"] == 0.225
        # A second store over the same dir resumes the completed map.
        reopened = CampaignStore(str(tmp_path / "s"))
        assert set(reopened.begin(self.IDENTITY)) == {condition_id(0.0, 1.0)}

    def test_record_is_durable_via_append_only_log(self, tmp_path):
        """record() appends to completed.log (O(1)); the next begin()
        consolidates the log into an atomic manifest rewrite."""
        store = CampaignStore(str(tmp_path / "s"))
        store.begin(self.IDENTITY)
        store.record(0.0, 1.0, 1.0, 0.2)
        assert os.path.exists(store.completion_log_path)
        with open(store.manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["version"] == 1
        assert manifest["campaign"] == self.IDENTITY
        assert manifest["completed"] == {}  # not rewritten per condition

        reopened = CampaignStore(str(tmp_path / "s"))
        completed = reopened.begin(self.IDENTITY)
        filename = completed[condition_id(0.0, 1.0)]["file"]
        assert os.path.exists(os.path.join(store.root, filename))
        # Consolidated: the manifest file now owns the entry, the log is gone.
        assert not os.path.exists(store.completion_log_path)
        with open(store.manifest_path, encoding="utf-8") as handle:
            assert condition_id(0.0, 1.0) in json.load(handle)["completed"]

    def test_torn_log_tail_is_ignored(self, tmp_path):
        store = CampaignStore(str(tmp_path / "s"))
        store.begin(self.IDENTITY)
        store.record(0.0, 1.0, 1.0, 0.2)
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
            store.record(0.0, 1.0, 1.0, 0.2)

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
        np.testing.assert_array_equal(np.asarray(store.load_aerial(-40.0)),
                                      aerial)
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
            sweep.base_spec.fingerprint())[0])
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
        np.testing.assert_array_equal(np.asarray(store.load_aerial(0.0)),
                                      outcome.aerials[0.0])
