"""The bite matrix: which model constants the paper checks.

The live set is every key of ``repro.simnet.parameters.PARAMETERS``.
Each constant is set alone to x0.9 and x1.1 over every point the paper
rows (``repro.perf.calibration.PAPER_TARGETS``) and the claims
(``paper_claims.CLAIMS``) read, and gets one verdict:

* ``bitten``: a step moves a paper row by more than 0.1 % or flips a claim;
* ``unvalidated``: no step does, but a configuration reads it -- the
  machine needs a value the paper does not check (by the alpha-beta rule
  a latency is one: 128 MB rows cannot calibrate it);
* ``deleted``: no configuration reads it, so it goes.

Each entry also counts the points a step moves by more than 0.1 %,
claims' points included.

Reads are observed, not assumed: one pass over the same points plus
:func:`configurations` (a small run of every app on every system, and a
local session in both precisions) with every built record a copy that
logs each field read, and every table entry one that logs its reads
outside the record factory. Each claim is listed with its plant
magnitude (plant / current value); past 10x it is a structural
ordering, not a calibration.

Run from the repository root (numpy only; ~9 minutes on one core of a
2-vCPU Xeon); CI compares the output with the committed
``sensitivity.json``:

    PYTHONPATH=src python tests/perf/sensitivity.py > tests/perf/sensitivity.json
"""

from __future__ import annotations

import json
import sys

import repro
from paper_claims import CLAIMS, FIGURES, PROBES, Plant, row_points
from repro.apps.cg import run_cg
from repro.apps.common import SYSTEMS
from repro.apps.fft import run_fft
from repro.apps.matmul import run_matmul
from repro.apps.stream import run_stream
from repro.errors import ResourceExhaustedError
from repro.perf.calibration import PAPER_TARGETS
from repro.simnet import machines, transports
from repro.simnet.parameters import PARAMETERS, Parameter, model

STEPS = (0.9, 1.1)
THRESHOLD = 1e-3  # a row "moves" past 0.1 %
STRUCTURAL = 10.0  # a plant this far from the current value is no calibration
# Constants no configuration reads that stay, each for its reason: the
# verdict "unvalidated" with the note.
NOTES = {
    "1GbE.latency":
        "misrouted: _staged_transfer charges machine.fabric.latency (EDR's "
        "on Tegner) on Tegner's Ethernet gRPC path",
}


class _Patches:
    """``setitem`` that :meth:`undo` reverts (a Plant target)."""

    def __init__(self):
        self._undo = []

    def setitem(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        for mapping, key, value in reversed(self._undo):
            mapping[key] = value
        self._undo.clear()


def points() -> list:
    """Every point the paper rows and the claims read."""
    found = set().union(*(row_points(figure) for figure in FIGURES),
                        *(claim.points for claim in CLAIMS))
    return sorted(found, key=repr)


def _local_session(dtype, complex_dtype) -> float:
    """A local session's simulated time: reads, matmul, elementwise and FFT
    on its CPU and its GPU, an allreduce over both, an input pipeline."""
    g = repro.Graph()
    with g.as_default():
        fetches = []
        for device in ("/cpu:0", "/gpu:0"):
            with repro.device(device):
                a = repro.read_tile("a.npy", dtype=dtype, shape=[64, 64])
                z = repro.read_tile("z.npy", dtype=complex_dtype, shape=[4096])
                fetches += [repro.matmul(a, a), a + a, repro.fft(z)]
        fetches += repro.all_reduce(fetches[0::3], devices=["/cpu:0", "/gpu:0"])
        fetches.append(repro.Dataset.range(4).make_one_shot_iterator().get_next())
    config = repro.SessionConfig(shape_only=True)
    with repro.Session(graph=g, config=config) as sess:
        sess.machine.filesystem.declare_file("a.npy", (64, 64), dtype)
        sess.machine.filesystem.declare_file("z.npy", (4096,), complex_dtype)
        sess.run(fetches)
        return sess.env.now


def configurations() -> list[float]:
    """One small run of every app on every paper system, and a local
    session per precision: what the machines read outside the paper's
    points."""
    values = []
    for system in SYSTEMS:
        if system == "localhost":
            continue
        for protocol in transports.SERVER_PROTOCOLS:
            for device in ("cpu", "gpu"):
                values.append(run_stream(
                    system=system, device=device, size_mb=1,
                    protocol=protocol, iterations=2,
                    shape_only=True).bandwidth_mbs)
            values.append(run_cg(system=system, n=1024, num_gpus=2,
                                 iterations=2, protocol=protocol,
                                 shape_only=True).gflops)
        values.append(run_matmul(system=system, n=2048, tile=1024, num_gpus=2,
                                 num_reducers=1, shape_only=True).gflops)
        values.append(run_fft(system=system, n=1 << 12, num_tiles=4, num_gpus=2,
                              shape_only=True).gflops_with_merge)
    values.append(_local_session(repro.float32, repro.complex64))
    values.append(_local_session(repro.float64, repro.complex128))
    return values


def evaluate(at: list) -> dict:
    """Every point's value; ``None`` for one that runs out of memory."""
    measured = {}
    for point in at:
        try:
            measured[point] = PROBES[point[0]](*point[1:])
        except ResourceExhaustedError:
            measured[point] = None
    return measured


def rows(measured: dict) -> dict:
    """Each measured paper row's value (``None``: out of memory)."""
    values = {}
    for row in PAPER_TARGETS.values():
        if row.point is None:
            continue
        value = measured[(row.figure,) + row.point]
        if value is not None and row.over is not None:
            base = measured[(row.figure,) + row.over]
            value = None if base is None else value / base
        values[row.key] = value
    return values


def holding(measured: dict) -> set:
    held = set()
    for claim in CLAIMS:
        try:
            if claim.holds(*(measured[point] for point in claim.points)):
                held.add(claim.name)
        except TypeError:  # an out-of-memory point where a number was due
            pass
    return held


def _change(new, old):
    if new is None or old is None:
        return None if new is old else "OOM"
    change = new / old - 1.0
    return round(100.0 * change, 2) if abs(change) > THRESHOLD else None


def _scaled(value, scale):
    return value * scale if isinstance(value, float) else round(value * scale)


def _planted(plant: Plant, run):
    patches = _Patches()
    plant.apply(patches)
    try:
        return run()
    finally:
        patches.undo()


def _logged_reads(run) -> set:
    """The keys read while ``run()`` runs. The record factory hands out
    copies that log each field read; every table entry is swapped for one
    that logs a read of its value, except the factory's own while it
    builds a record."""
    log: set = set()
    building = False

    class Logged(Parameter):
        @property
        def value(self):
            if not building:
                log.add(self.key)
            return self[0]

    def logged_model(cls, part):
        nonlocal building
        building = True
        try:
            record = model(cls, part)
        finally:
            building = False

        class LoggedRecord(cls):
            def __getattribute__(self, attr):
                log.add(f"{part}.{attr}")
                return object.__getattribute__(self, attr)

        copy = object.__new__(LoggedRecord)
        copy.__dict__.update(vars(record))
        return copy

    patches = _Patches()
    for key, parameter in PARAMETERS.items():
        logged = Logged(*parameter)
        logged.key = key
        patches.setitem(PARAMETERS, key, logged)
    machines.model = logged_model
    try:
        run()
    finally:
        machines.model = model
        patches.undo()
    return log


def matrix() -> dict:
    at = points()
    base = evaluate(at)
    base_rows, base_claims = rows(base), holding(base)
    read = _logged_reads(lambda: (evaluate(at), configurations()))
    constants = {}
    for key in sorted(PARAMETERS):
        current = PARAMETERS[key].value
        moved, flipped, points_moved = {}, set(), set()
        for scale in STEPS:
            plant = Plant(key, _scaled(current, scale))
            measured = _planted(plant, lambda: evaluate(at))
            for row, value in rows(measured).items():
                change = _change(value, base_rows[row])
                if change is not None:
                    moved.setdefault(row, {})[f"x{scale}"] = change
            flipped |= base_claims - holding(measured)
            points_moved |= {point for point in at
                             if _change(measured[point], base[point]) is not None}
        entry = {"rows": moved, "claims": sorted(flipped),
                 "points": len(points_moved)}
        if moved or flipped:
            entry["verdict"] = "bitten"
        elif key in NOTES:
            entry.update(verdict="unvalidated", note=NOTES[key])
        else:
            entry["verdict"] = "unvalidated" if key in read else "deleted"
        constants[key] = entry
    claims = {}
    for claim in CLAIMS:
        plant = claim.plant
        ratio = plant.value / plant.current()
        claims[claim.name] = {
            "plant": plant.key,
            "ratio": float(f"{ratio:.4g}"),
            "structural": not 1 / STRUCTURAL <= ratio <= STRUCTURAL,
        }
    return {"steps": list(STEPS), "threshold": THRESHOLD, "points": len(at),
            "row_change": "percent, per step", "constants": constants,
            "claims": claims}


if __name__ == "__main__":
    json.dump(matrix(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
