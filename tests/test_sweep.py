"""Tests for the sweep-orchestration subsystem (repro.sweep) and its CLI wiring.

Pinned guarantees:

* a focus-exposure campaign enumerates every condition, derives exactly one
  kernel bank per focus (the TCC-reuse economy) and matches the semantics of
  the pre-refactor per-simulator loop,
* campaigns on several threads produce identical windows and bit-for-bit
  identical aerials to one-thread campaigns,
* auto target-CD and auto CD-row selection behave sensibly, and
* ``repro.cli sweep-window`` runs a whole campaign from the command line.
"""

import json
import os

import numpy as np
import pytest

from reference import assert_ran_on_shares, threads_seen
from repro.backend import ComputeConfig
from repro.engine import ShardedExecutor
from repro.optics import LithographySimulator, OpticsConfig
from repro.optics.process_window import measure_cd
from repro.optics.pupil import Pupil
from repro.optics.source import CircularSource
from repro.sweep import FocusExposureGrid, ProcessWindowSweep, check_window_targets

TILE = 48
PIXEL = 20.0
CONFIG = OpticsConfig(tile_size_px=TILE, pixel_size_nm=PIXEL, max_socs_order=12)
SOURCE = CircularSource(sigma=0.6)


@pytest.fixture(scope="module")
def line_mask():
    mask = np.zeros((TILE, TILE))
    mask[4:-4, TILE // 2 - 4: TILE // 2 + 4] = 1.0
    return mask


class TestFocusExposureGrid:
    def test_conditions_focus_major(self):
        grid = FocusExposureGrid((0.0, 50.0), (0.9, 1.1))
        assert grid.conditions() == [(0.0, 0.9), (0.0, 1.1),
                                     (50.0, 0.9), (50.0, 1.1)]
        assert len(grid) == 4

    def test_nominal_selection(self):
        grid = FocusExposureGrid((-80.0, -20.0, 40.0), (0.85, 1.05, 1.2))
        assert grid.nominal_focus_nm == -20.0
        assert grid.nominal_dose == 1.05

    def test_nominal_tie_breaks_deterministically(self):
        assert FocusExposureGrid((50.0, -50.0), (1.1, 0.9)).nominal_focus_nm == -50.0
        assert FocusExposureGrid((0.0,), (0.9, 1.1)).nominal_dose == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            FocusExposureGrid(focus_values_nm=())
        with pytest.raises(ValueError):
            FocusExposureGrid(dose_values=())
        with pytest.raises(ValueError):
            FocusExposureGrid(dose_values=(1.0, 0.0))

    def test_from_sequences_casts(self):
        grid = FocusExposureGrid.from_sequences([0, 50], [1])
        assert grid.focus_values_nm == (0.0, 50.0)
        assert grid.dose_values == (1.0,)


class TestWindowTargets:
    @pytest.mark.parametrize("target_cd_nm, tolerance", [(None, 0.1),
                                                         (45.0, 0.999)])
    def test_judgeable_targets_pass(self, target_cd_nm, tolerance):
        check_window_targets(target_cd_nm, tolerance)

    @pytest.mark.parametrize("target_cd_nm, tolerance, message", [
        (0.0, 0.1, "target_cd_nm must be positive"),
        (-5.0, 0.1, "target_cd_nm must be positive"),
        (None, 0.0, r"tolerance must be in \(0, 1\)"),
        (45.0, 1.0, r"tolerance must be in \(0, 1\)"),
    ])
    def test_unjudgeable_targets_raise(self, target_cd_nm, tolerance, message):
        with pytest.raises(ValueError, match=message):
            check_window_targets(target_cd_nm, tolerance)


class TestProcessWindowSweep:
    GRID = FocusExposureGrid((-100.0, 0.0, 100.0), (0.85, 1.0, 1.15))

    def test_matches_per_simulator_loop(self, line_mask):
        """The sweep reproduces the pre-refactor simulator-per-focus semantics."""
        from dataclasses import replace

        from repro.optics.process_window import widest_feature_row

        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        outcome = sweep.run(line_mask, target_cd_nm=160.0, grid=self.GRID,
                            tolerance=0.25)

        def simulator_at(focus_nm):
            return LithographySimulator(
                config=replace(CONFIG, defocus_nm=focus_nm),
                source=SOURCE, pupil=Pupil(defocus_nm=focus_nm))

        # The row is fixed at the nominal condition, exactly as the sweep does.
        nominal = simulator_at(0.0).aerial(line_mask)
        row = widest_feature_row(nominal > CONFIG.resist_threshold)
        for point in outcome.window.points:
            aerial = simulator_at(point.focus_nm).aerial(line_mask)
            threshold = CONFIG.resist_threshold / point.dose
            resist = (aerial > threshold).astype(np.uint8)
            expected = measure_cd(resist, row=row, pixel_size_nm=PIXEL)
            assert point.cd_nm == pytest.approx(expected)

    def test_auto_target_uses_nominal_condition(self, line_mask):
        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        outcome = sweep.run(line_mask, grid=self.GRID, tolerance=0.25)
        nominal = [p for p in outcome.window.points
                   if p.focus_nm == 0.0 and p.dose == 1.0][0]
        assert outcome.window.target_cd_nm == nominal.cd_nm
        assert nominal.cd_nm > 0

    def test_outcome_provenance_and_reports(self, line_mask):
        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        outcome = sweep.run(line_mask, grid=self.GRID, tolerance=0.25,
                            keep_aerials=True)
        assert outcome.num_tiles == 1
        assert outcome.elapsed_s > 0
        assert set(outcome.aerials) == set(self.GRID.focus_values_nm)
        table = outcome.cd_table()
        assert "-100.0" in table and "1.000" in table
        assert "window fraction" in outcome.summary()

    def test_kernel_bank_per_focus_not_per_condition(self, line_mask, tmp_path,
                                                     monkeypatch):
        """F x D conditions build exactly F banks, persisted for reuse."""
        import os

        from repro.engine import cache

        calls = []
        plain = cache.socs_kernels
        monkeypatch.setattr(
            cache, "socs_kernels",
            lambda *args, **kw: calls.append(1) or plain(*args, **kw))
        sweep = ProcessWindowSweep(
            CONFIG, source=SOURCE,
            executor=ShardedExecutor(cache_dir=str(tmp_path)))
        sweep.run(line_mask, grid=self.GRID, tolerance=0.25)
        banks = [f for f in os.listdir(tmp_path) if f.endswith(".npz")]
        assert len(banks) == len(self.GRID.focus_values_nm)
        assert len(calls) == len(self.GRID.focus_values_nm)

    def test_auto_precision_decomposes_in_the_executors_cache_only(
            self, line_mask, tmp_path, monkeypatch):
        """``precision="auto"`` autotunes against the nominal float64 bank
        when the sweep is built; with an executor that has its own kernel
        ``cache_dir`` (the service, ``sweep-window --cache-dir``) that bank
        must come from — and stay in — that directory, not be decomposed a
        second time in the process-default cache: one decomposition per
        focus, not one more."""
        from repro.engine import cache

        calls = []
        plain = cache.socs_kernels
        monkeypatch.setattr(
            cache, "socs_kernels",
            lambda *args, **kw: calls.append(1) or plain(*args, **kw))
        grid = FocusExposureGrid((0.0, 73.0), (1.0,))  # foci no test shares
        compute = ComputeConfig(precision="auto")
        with ShardedExecutor(cache_dir=str(tmp_path)) as executor:
            sweep = ProcessWindowSweep(
                OpticsConfig(tile_size_px=TILE, pixel_size_nm=PIXEL,
                             max_socs_order=11),
                source=SOURCE, executor=executor, compute=compute)
            sweep.run(line_mask, grid=grid, tolerance=0.25)
        assert len(calls) == len(grid.focus_values_nm)
        assert sweep.base_spec.cache_dir == str(tmp_path)

    def test_layout_sweep_sharded_matches_serial(self, tmp_path):
        layout = np.zeros((80, 110))
        layout[10:70, 20:28] = 1.0   # off-centre vertical line
        layout[30:38, 40:100] = 1.0  # horizontal bar
        grid = FocusExposureGrid((0.0, 120.0), (0.9, 1.1))
        serial = ProcessWindowSweep(
            CONFIG, source=SOURCE,
            executor=ShardedExecutor(cache_dir=str(tmp_path)),
            compute=ComputeConfig(fft_workers=1))
        serial_outcome = serial.run(layout, grid=grid, tolerance=0.3,
                                    guard_px=10, keep_aerials=True)
        assert serial_outcome.num_tiles > 1
        with ShardedExecutor(cache_dir=str(tmp_path)) as executor, \
                threads_seen() as seen:
            sharded = ProcessWindowSweep(
                CONFIG, source=SOURCE, executor=executor,
                compute=ComputeConfig(fft_workers=2))
            sharded_outcome = sharded.run(layout, grid=grid, tolerance=0.3,
                                          guard_px=10, keep_aerials=True)
        assert_ran_on_shares(seen)
        assert sharded_outcome.window == serial_outcome.window
        for focus in grid.focus_values_nm:
            np.testing.assert_array_equal(sharded_outcome.aerials[focus],
                                          serial_outcome.aerials[focus])

    def test_auto_row_finds_off_centre_feature(self):
        layout = np.zeros((80, 110))
        layout[10:70, 20:28] = 1.0
        layout[30:38, 40:100] = 1.0
        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        outcome = sweep.run(layout, grid=FocusExposureGrid((0.0,), (1.0,)),
                            tolerance=0.3, guard_px=10)
        assert outcome.window.points[0].cd_nm > 0

    def test_validation(self, line_mask):
        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        with pytest.raises(ValueError):
            sweep.run(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            sweep.run(line_mask, target_cd_nm=-1.0)
        with pytest.raises(ValueError):
            sweep.run(line_mask, tolerance=1.5)
        with pytest.raises(ValueError):  # nothing prints, no explicit target
            sweep.run(np.zeros((TILE, TILE)), grid=FocusExposureGrid((0.0,), (1.0,)))

    def test_engine_for_focus_is_memoised(self):
        sweep = ProcessWindowSweep(CONFIG, source=SOURCE)
        assert sweep.engine_for_focus(40.0) is sweep.engine_for_focus(40.0)
        assert sweep.engine_for_focus(40.0) is not sweep.engine_for_focus(0.0)


class TestOneTileCampaign:
    """A layout of exactly one tile is imaged like any other: one
    ``image_layout`` call per focus, through the tile cache when it is on."""

    GRID = FocusExposureGrid((-100.0, 0.0, 100.0), (0.9, 1.0))

    @pytest.mark.parametrize("kind", ["dense", "reader"])
    def test_one_tile_campaign_reaches_the_tile_cache(self, kind, line_mask,
                                                      tmp_path, monkeypatch):
        from repro.engine import tile_cache as tile_cache_module
        from repro.engine.tile_cache import TileResultCache
        from repro.layout import GeometryLayoutReader
        from repro.layout.geometry import Rect
        from repro.sweep import load_campaign_report

        layout = line_mask if kind == "dense" else GeometryLayoutReader(
            {"m1": [Rect(400.0, 80.0, 560.0, 880.0)]}, PIXEL,
            shape=(TILE, TILE))
        monkeypatch.setattr(tile_cache_module, "_default_cache",
                            TileResultCache())
        outcomes = {}
        for cached in (False, True):
            sweep = ProcessWindowSweep(
                CONFIG, source=SOURCE, executor=ShardedExecutor(),
                compute=ComputeConfig(tile_cache=cached))
            outcomes[cached] = sweep.run(
                layout, grid=self.GRID, tolerance=0.25, keep_aerials=True,
                store=str(tmp_path / f"store-{cached}"))
        for focus in self.GRID.focus_values_nm:
            np.testing.assert_array_equal(outcomes[True].aerials[focus],
                                          outcomes[False].aerials[focus])
        assert outcomes[True].window == outcomes[False].window
        assert outcomes[True].num_tiles == outcomes[False].num_tiles == 1
        assert outcomes[False].tile_stats is None
        foci = len(self.GRID.focus_values_nm)
        assert outcomes[True].tile_stats.tiles == foci
        stored = load_campaign_report(str(tmp_path / "store-True")).tile_cache
        assert stored["tiles"] == foci


class TestSweepWindowCLI:
    def test_sweep_window_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        output = str(tmp_path / "window.npz")
        code = main(["sweep-window", "--width", "96", "--height", "80",
                     "--tile-size", "48", "--pixel-size-nm", "8",
                     "--focus=-60,0,60", "--dose", "0.9,1.0,1.1",
                     "--tolerance", "0.3",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--output", output])
        assert code == 0
        out = capsys.readouterr().out
        assert "process window" in out
        assert "window fraction" in out
        assert "focus_nm \\ dose" in out
        with np.load(output) as data:
            assert data["cd_nm"].shape == (3, 3)
            assert data["in_spec"].shape == (3, 3)
            assert list(data["focus_values_nm"]) == [-60.0, 0.0, 60.0]

    def test_sweep_window_bad_focus_list(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep-window", "--focus", "a,b", "--output", "x.npz"])
        with pytest.raises(SystemExit):  # all-separator input is not a list
            main(["sweep-window", "--focus", ",", "--output", "x.npz"])

    def test_sweep_window_store_and_resume(self, tmp_path, capsys):
        """A store-backed CLI campaign resumes computing nothing."""
        from repro.cli import main

        store = str(tmp_path / "campaign")
        base_args = ["sweep-window", "--width", "96", "--height", "80",
                     "--tile-size", "48", "--pixel-size-nm", "8",
                     "--focus=-60,0,60", "--dose", "0.9,1.0,1.1",
                     "--tolerance", "0.3",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--store", store]
        assert main(base_args) == 0
        first = capsys.readouterr().out
        assert "9 computed, 0 resumed" in first

        # Without --resume a non-empty store is refused...
        assert main(base_args) == 2
        assert "resume" in capsys.readouterr().err
        # ...with it, every condition is served from disk.
        assert main(base_args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 computed, 9 resumed" in second
        assert first.splitlines()[-1] == second.splitlines()[-1]  # same window

        # A store measured at another resist threshold is another campaign.
        manifest_path = os.path.join(store, "manifest.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["derived"]["resist_threshold"] == 0.225
        manifest["derived"]["resist_threshold"] = 0.4
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        assert main(base_args + ["--resume"]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert "threshold 0.4, not 0.225" in error

    def test_a_resume_under_another_fft_workers_computes_nothing(
            self, tmp_path, capsys):
        """No thread budget changes a bit, so none is part of a campaign's
        identity: ``--fft-workers 1`` then ``--fft-workers 2 --resume``
        resumes every condition to the same CD matrix.  The precision is
        identity, and the refusal names it."""
        from repro.cli import main

        store = str(tmp_path / "campaign")
        base_args = ["sweep-window", "--width", "96", "--height", "80",
                     "--tile-size", "48", "--pixel-size-nm", "8",
                     "--focus=-60,0,60", "--dose", "0.9,1.0,1.1",
                     "--tolerance", "0.3", "--store", store]
        one = str(tmp_path / "one.npz")
        assert main(base_args + ["--fft-workers", "1", "--output", one]) == 0
        assert "9 computed, 0 resumed" in capsys.readouterr().out
        two = str(tmp_path / "two.npz")
        assert main(base_args + ["--fft-workers", "2", "--resume",
                                 "--output", two]) == 0
        assert "0 computed, 9 resumed" in capsys.readouterr().out
        with np.load(one) as first, np.load(two) as resumed:
            assert sorted(first.files) == sorted(resumed.files)
            for key in first.files:
                assert first[key].tobytes() == resumed[key].tobytes(), key
        assert main(base_args + ["--precision", "float32", "--resume"]) == 2
        error = capsys.readouterr().err
        assert "records a different campaign" in error
        assert "precision" in error

    def test_sweep_window_streaming_flag(self, tmp_path, capsys):
        """The flags that selected between paths are gone, not ignored: a
        multi-tile sweep images in bounded batches without being asked, and
        the worker-count flags went with the shard cut they sized."""
        from repro.cli import main

        base = ["sweep-window", "--width", "96", "--height", "80",
                "--tile-size", "48", "--pixel-size-nm", "8",
                "--focus", "0", "--dose", "1.0",
                "--tolerance", "0.3",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(base) == 0
        assert "process window" in capsys.readouterr().out
        serve = ["serve", "--data-dir", str(tmp_path / "svc")]
        for flag in (["--streaming"], ["--scheduler", "pool"],
                     ["--workers", "2"], ["--queue-workers", "2"]):
            for command in (base, ["image-layout", "--output", "x.npz"],
                            serve):
                with pytest.raises(SystemExit) as excinfo:
                    main(command + flag)
                assert excinfo.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_window_accepts_space_separated_negative_focus(self):
        """`--focus -80,-40,0` must parse without the `=` workaround."""
        from repro.cli import build_parser

        arguments = build_parser().parse_args(
            ["sweep-window", "--focus", "-80,-40,0", "--dose", "1.0",
             "--output", "x.npz"])
        assert arguments.focus == "-80,-40,0"
        arguments = build_parser().parse_args(
            ["sweep-window", "--focus", "-.5,0,.5", "--output", "x.npz"])
        assert arguments.focus == "-.5,0,.5"
