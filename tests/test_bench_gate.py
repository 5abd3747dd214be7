"""Tests for the CI perf-regression gate (benchmarks/compare_trajectory.py).

The checker is a standalone script (benchmarks/ is not a package), so it is
loaded by file path.  Pinned behaviour:

* gated metrics are the self-normalised ratios (``speedup`` /
  ``peak_memory_ratio``): a >25 % drop fails, anything else passes,
* absolute seconds / throughput are reported but gated only under
  ``--absolute`` (CI runners are not comparable hardware),
* configuration-like numerics (cpus, shapes, counts) are ignored entirely,
* files present on only one side produce notes, never failures.
"""

import importlib.util
import json
import os
import sys

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_trajectory",
    os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                 "compare_trajectory.py"))
gate = importlib.util.module_from_spec(_SPEC)
# dataclasses resolves the defining module through sys.modules at class
# creation time, so the by-path load must be registered first.
sys.modules["compare_trajectory"] = gate
_SPEC.loader.exec_module(gate)


def _write(directory, name, payload):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


@pytest.fixture()
def dirs(tmp_path):
    return str(tmp_path / "baseline"), str(tmp_path / "current")


class TestClassification:
    def test_speedup_keys_are_gated_higher_better(self):
        assert gate._classify("speedup", absolute=False) == (True, True, 1.0)
        assert gate._classify("sharded_speedup", absolute=False) == \
            (True, True, 1.0)
        assert gate._classify("peak_memory_ratio", absolute=False) == \
            (True, True, gate.MEMORY_SLACK)

    def test_absolute_keys_gated_only_with_flag(self):
        assert gate._classify("seconds", absolute=False) == (False, False, 1.0)
        assert gate._classify("serial_seconds", absolute=True) == \
            (False, True, 1.0)
        assert gate._classify("um2_per_second", absolute=False) == \
            (True, False, 1.0)
        assert gate._classify("um2_per_second", absolute=True) == \
            (True, True, 1.0)

    def test_configuration_keys_ignored(self):
        for key in ("cpus", "num_workers", "shape", "peak_bytes"):
            assert gate._classify(key, absolute=True) is None

    def test_warm_share_gated_lower_better(self):
        assert gate._classify("warm_share", absolute=False) \
            == (False, True, 1.0)

    def test_memory_ratio_gets_double_slack(self, dirs):
        """A 40% peak_memory_ratio drop passes (allocator noise); 60% fails."""
        baseline_dir, current_dir = dirs
        _write(baseline_dir, "m.json", {"peak_memory_ratio": 10.0})
        _write(current_dir, "m.json", {"peak_memory_ratio": 6.0})
        comparisons, _ = gate.compare_directories(baseline_dir, current_dir)
        _, code = gate.format_report(comparisons, [], 0.25)
        assert code == 0
        _write(current_dir, "m.json", {"peak_memory_ratio": 4.0})
        comparisons, _ = gate.compare_directories(baseline_dir, current_dir)
        _, code = gate.format_report(comparisons, [], 0.25)
        assert code == 1


class TestDirectoryComparison:
    def test_pass_when_unchanged(self, dirs):
        baseline_dir, current_dir = dirs
        payload = {"speedup": 2.0, "seconds": 0.5, "cpus": 1}
        _write(baseline_dir, "a.json", payload)
        _write(current_dir, "a.json", payload)
        comparisons, notes = gate.compare_directories(baseline_dir, current_dir)
        report, code = gate.format_report(comparisons, notes, 0.25)
        assert code == 0
        assert "FAIL" not in report

    def test_fail_on_large_speedup_regression(self, dirs):
        baseline_dir, current_dir = dirs
        _write(baseline_dir, "a.json", {"speedup": 2.0})
        _write(current_dir, "a.json", {"speedup": 1.4})  # 0.70x < 0.75x
        comparisons, _ = gate.compare_directories(baseline_dir, current_dir)
        report, code = gate.format_report(comparisons, [], 0.25)
        assert code == 1
        assert "FAIL" in report

    def test_small_regression_within_tolerance_passes(self, dirs):
        baseline_dir, current_dir = dirs
        _write(baseline_dir, "a.json", {"speedup": 2.0})
        _write(current_dir, "a.json", {"speedup": 1.6})  # 0.80x >= 0.75x
        comparisons, _ = gate.compare_directories(baseline_dir, current_dir)
        _, code = gate.format_report(comparisons, [], 0.25)
        assert code == 0

    def test_nested_records_and_lists_are_walked(self, dirs):
        baseline_dir, current_dir = dirs
        _write(baseline_dir, "m.json",
               {"records": [{"speedup": 3.0}, {"speedup": 2.0}]})
        _write(current_dir, "m.json",
               {"records": [{"speedup": 3.1}, {"speedup": 1.0}]})
        comparisons, _ = gate.compare_directories(baseline_dir, current_dir)
        _, code = gate.format_report(comparisons, [], 0.25)
        assert code == 1
        assert len(comparisons) == 2

    def test_seconds_regression_ignored_without_absolute(self, dirs):
        baseline_dir, current_dir = dirs
        _write(baseline_dir, "a.json", {"serial_seconds": 1.0})
        _write(current_dir, "a.json", {"serial_seconds": 10.0})
        comparisons, _ = gate.compare_directories(baseline_dir, current_dir)
        _, code = gate.format_report(comparisons, [], 0.25)
        assert code == 0
        comparisons, _ = gate.compare_directories(baseline_dir, current_dir,
                                                  absolute=True)
        _, code = gate.format_report(comparisons, [], 0.25)
        assert code == 1

    def test_one_sided_files_are_notes_not_failures(self, dirs):
        baseline_dir, current_dir = dirs
        _write(baseline_dir, "old.json", {"speedup": 2.0})
        _write(current_dir, "new.json", {"speedup": 2.0})
        comparisons, notes = gate.compare_directories(baseline_dir, current_dir)
        assert comparisons == []
        assert len(notes) == 2
        _, code = gate.format_report(comparisons, notes, 0.25)
        assert code == 0

    def test_main_entry_point(self, dirs, tmp_path, capsys):
        baseline_dir, current_dir = dirs
        _write(baseline_dir, "a.json", {"speedup": 2.0})
        _write(current_dir, "a.json", {"speedup": 0.5})
        report_path = str(tmp_path / "report.txt")
        code = gate.main(["--baseline", baseline_dir, "--current", current_dir,
                          "--report", report_path])
        assert code == 1
        assert os.path.exists(report_path)
        assert "FAIL" in capsys.readouterr().out

    def test_repo_results_compare_clean_against_themselves(self):
        results = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                               "results")
        comparisons, notes = gate.compare_directories(results, results)
        report, code = gate.format_report(comparisons, notes, 0.25)
        assert code == 0
        assert comparisons, "committed results should expose gated metrics"
