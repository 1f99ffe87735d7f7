"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures inside the
simulator, asserts the paper's qualitative findings (orderings, scaling
bands), and archives the rendered table plus the paper-vs-measured
comparison under ``benchmarks/results/``. The simulated-clock headlines
are pinned in tier-1 (``tests/perf/test_sim_headlines.py``), not here.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record_table(results_dir):
    """Callable writing a named artifact; returns the path."""

    def write(name: str, text: str) -> str:
        path = os.path.join(results_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return path

    return write
