"""Tests for the focus-exposure / process-window analysis (repro.optics.process_window)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optics import OpticsConfig
from repro.optics.process_window import (
    FocusExposurePoint,
    ProcessWindowResult,
    longest_printed_run,
    measure_cd,
    widest_feature_row,
)
from repro.optics.source import CircularSource
from repro.sweep import FocusExposureGrid, ProcessWindowSweep

TILE = 48
PIXEL = 20.0
CONFIG = OpticsConfig(tile_size_px=TILE, pixel_size_nm=PIXEL, max_socs_order=12)


def _longest_printed_run_loop(line: np.ndarray) -> int:
    """The plain scan ``longest_printed_run`` vectorises: the property oracle."""
    best = current = 0
    for printed in np.asarray(line, dtype=bool):
        current = current + 1 if printed else 0
        best = max(best, current)
    return best


@pytest.fixture(scope="module")
def line_mask():
    """A single vertical line of width 8 px (160 nm) through the tile centre."""
    mask = np.zeros((TILE, TILE))
    mask[4:-4, TILE // 2 - 4: TILE // 2 + 4] = 1.0
    return mask


def run_window(mask, target_cd_nm,
               focus_values_nm=(-80.0, -40.0, 0.0, 40.0, 80.0),
               dose_values=(0.9, 1.0, 1.1), tolerance=0.1):
    """The focus-exposure matrix of one mask, straight from the sweep layer."""
    grid = FocusExposureGrid.from_sequences(focus_values_nm, dose_values)
    sweep = ProcessWindowSweep(CONFIG, source=CircularSource(sigma=0.6))
    return sweep.run(mask, target_cd_nm=target_cd_nm, grid=grid,
                     tolerance=tolerance).window


@pytest.fixture(scope="module")
def window(line_mask):
    return run_window(line_mask, target_cd_nm=160.0,
                      focus_values_nm=(-100.0, 0.0, 100.0),
                      dose_values=(0.85, 1.0, 1.15), tolerance=0.25)


class TestMeasureCD:
    def test_width_of_a_perfect_line(self):
        resist = np.zeros((10, 10))
        resist[:, 3:7] = 1
        assert measure_cd(resist, pixel_size_nm=5.0) == pytest.approx(20.0)

    def test_zero_when_nothing_prints(self):
        assert measure_cd(np.zeros((10, 10))) == 0.0

    def test_picks_widest_run(self):
        resist = np.zeros((5, 12))
        resist[2, 1:3] = 1
        resist[2, 5:11] = 1
        assert measure_cd(resist, row=2) == 6.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), max_size=300))
    def test_vectorized_run_scan_matches_reference_loop(self, bits):
        """Property: the np.diff scan agrees with the pre-vectorisation loop."""
        line = np.array(bits, dtype=bool)
        assert longest_printed_run(line) == _longest_printed_run_loop(line)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=40))
    def test_vectorized_measure_cd_matches_loop_on_random_resists(
            self, seed, height, width):
        resist = np.random.default_rng(seed).random((height, width)) > 0.6
        for row in range(height):
            expected = _longest_printed_run_loop(resist[row]) * 2.5
            assert measure_cd(resist, row=row, pixel_size_nm=2.5) == expected

    def test_run_scan_rejects_2d(self):
        with pytest.raises(ValueError):
            longest_printed_run(np.zeros((3, 3), dtype=bool))

    def test_widest_feature_row(self):
        resist = np.zeros((6, 12))
        resist[1, 2:5] = 1
        resist[4, 3:10] = 1
        assert widest_feature_row(resist) == 4
        assert widest_feature_row(np.zeros((7, 9))) == 3  # centre fallback
        with pytest.raises(ValueError):
            widest_feature_row(np.zeros(5))

    def test_row_selection_and_validation(self):
        resist = np.zeros((6, 6))
        resist[1, :] = 1
        assert measure_cd(resist, row=1) == 6.0
        assert measure_cd(resist, row=4) == 0.0
        with pytest.raises(ValueError):
            measure_cd(resist, row=10)
        with pytest.raises(ValueError):
            measure_cd(np.zeros((2, 2, 2)))


class TestProcessWindow:
    def test_matrix_covers_all_conditions(self, window):
        assert len(window.points) == 9
        matrix = window.cd_matrix()
        assert set(matrix) == {-100.0, 0.0, 100.0}
        assert set(matrix[0.0]) == {0.85, 1.0, 1.15}

    def test_nominal_condition_prints_near_target(self, window):
        nominal = [p for p in window.points if p.focus_nm == 0.0 and p.dose == 1.0][0]
        assert nominal.cd_nm == pytest.approx(160.0, rel=0.3)

    def test_higher_dose_prints_wider(self, window):
        at_focus = {p.dose: p.cd_nm for p in window.points if p.focus_nm == 0.0}
        assert at_focus[1.15] >= at_focus[1.0] >= at_focus[0.85]

    def test_through_focus_symmetry(self, window):
        """Without other aberrations, +z and -z defocus print the same CD (Bossung symmetry)."""
        at_dose = {p.focus_nm: p.cd_nm for p in window.points if p.dose == 1.0}
        assert at_dose[100.0] == pytest.approx(at_dose[-100.0], abs=PIXEL)

    def test_defocus_changes_the_print(self, line_mask):
        """A large defocus must change the printed CD relative to best focus."""
        wide = run_window(line_mask, target_cd_nm=160.0,
                          focus_values_nm=(0.0, 250.0), dose_values=(1.0,), tolerance=0.25)
        at_dose = {p.focus_nm: p.cd_nm for p in wide.points}
        assert at_dose[250.0] != pytest.approx(at_dose[0.0], abs=1e-9)

    def test_window_fraction_bounds(self, window):
        assert 0.0 <= window.window_fraction() <= 1.0
        assert window.window_fraction() > 0.0

    def test_depth_of_focus_and_exposure_latitude(self, window):
        assert window.depth_of_focus_nm(dose=1.0) >= 0.0
        assert window.exposure_latitude(focus_nm=0.0) >= 0.0

    def test_in_spec_logic(self):
        result = ProcessWindowResult(points=(FocusExposurePoint(0.0, 1.0, 100.0),),
                                     target_cd_nm=100.0, tolerance=0.1)
        assert result.in_spec(result.points[0])
        off = FocusExposurePoint(0.0, 1.0, 150.0)
        assert not result.in_spec(off)

    def test_empty_window_fraction(self):
        result = ProcessWindowResult(points=(), target_cd_nm=100.0, tolerance=0.1)
        assert result.window_fraction() == 0.0
        assert result.depth_of_focus_nm(1.0) == 0.0
        assert result.exposure_latitude() == 0.0

    def test_input_validation(self, line_mask):
        with pytest.raises(ValueError):
            run_window(line_mask, target_cd_nm=0.0)
        with pytest.raises(ValueError):
            run_window(line_mask, target_cd_nm=100.0, tolerance=1.5)
        with pytest.raises(ValueError):
            run_window(line_mask, target_cd_nm=100.0, dose_values=())
        with pytest.raises(ValueError):
            run_window(line_mask, target_cd_nm=100.0, dose_values=(0.0,))
        with pytest.raises(ValueError):
            run_window(np.zeros((2, 2, 2)), target_cd_nm=100.0)
