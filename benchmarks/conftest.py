"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table, figure, ablation or extension of the
paper, except two that time or count the computation behind them
(``test_bench_micro_kernels.py``, ``test_bench_sweep.py``).  The scale is
controlled by the ``REPRO_PRESET`` environment variable (``tiny`` by default,
``small`` / ``default`` for longer runs); trained models and datasets are
cached in a session-wide experiment context so the harness never trains the
same model twice.

The paper benchmarks write the regenerated table to
``benchmarks/results/<name>.txt``; re-running the harness refreshes the
committed tables.  The repo's speed is measured elsewhere: ``bench/run.py``
runs the gated end-to-end workloads that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import get_context, preset_from_environment

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ is `bench`: deselected from tier-1 by the
    root addopts, selected in the bench job via `pytest benchmarks -m bench`.

    collection_modifyitems hooks are global once this conftest loads, so the
    marker is applied only to items that actually live in this directory.
    """
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    for item in items:
        if str(item.path).startswith(bench_dir + os.sep):
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def preset() -> str:
    return preset_from_environment(default="tiny")


@pytest.fixture(scope="session")
def seed() -> int:
    return int(os.environ.get("REPRO_SEED", "0"))


@pytest.fixture(scope="session")
def context(preset, seed):
    """Session-wide experiment context (datasets + trained models)."""
    return get_context(preset, seed)


@pytest.fixture(scope="session")
def record_output():
    """Write a regenerated table / figure to benchmarks/results/<name>.txt."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _record(name: str, text: str) -> str:
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        return path

    return _record
