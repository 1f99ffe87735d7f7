"""Shared fixtures for the benchmark harness.

The paper's findings are tier-1 claims (``tests/perf/test_paper_claims.py``)
and its simulated-clock headlines are pinned in tier-1 too
(``tests/perf/test_sim_headlines.py``). What is left here is the serving
sweep, which archives host-millisecond results under
``benchmarks/results/``.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR
