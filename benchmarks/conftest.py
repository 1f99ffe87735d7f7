"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures inside the
simulator, asserts the paper's qualitative findings (orderings, scaling
bands), and archives the rendered table plus the paper-vs-measured
comparison under ``benchmarks/results/``.

Perf-trajectory tracking: benchmarks call the ``record_bench`` fixture
with a lane (``optimizer``, ``collectives``, ``sgd``,
``collective_algos``, ``fault_tolerance``, ``serving``, ``verifier``)
and an entry name; each lane's entries are written once per pytest
session to ``benchmarks/results/BENCH_<lane>.json`` so the numbers can
be compared across PRs.
"""

import json
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


def _flush_records(path: str, records: dict) -> None:
    """Merge ``records`` into the JSON at ``path`` (see _bench_records)."""
    merged: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
    except (OSError, ValueError):
        merged = {}
    merged.update(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="session")
def record_table(results_dir):
    """Callable writing a named artifact; returns the path."""

    def write(name: str, text: str) -> str:
        path = os.path.join(results_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return path

    return write


@pytest.fixture(scope="session")
def _bench_records(results_dir):
    """Session-wide accumulator, lane -> {name: fields}, flushed to one
    ``BENCH_<lane>.json`` per lane at exit.

    Merged into any existing file so partial runs (e.g. only the smoke
    sweep) update their own entries without dropping the others.
    """
    records: dict = {}
    yield records
    for lane, entries in records.items():
        _flush_records(
            os.path.join(results_dir, f"BENCH_{lane}.json"), entries
        )


@pytest.fixture
def record_bench(_bench_records):
    """Callable recording one benchmark's perf entry.

    Usage: ``record_bench("optimizer", "fig10_cg", items_before=...,
    items_after=..., wall_off=..., wall_on=..., sim_elapsed=...)`` —
    arbitrary numeric fields are allowed; they land under the given name
    in the lane's JSON.
    """

    def record(lane: str, name: str, **fields) -> None:
        _bench_records.setdefault(lane, {})[name] = fields

    return record
