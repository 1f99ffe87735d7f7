"""The bite matrix: which simnet model constants the paper checks.

The live set is every numeric field of every frozen model record a
``repro.simnet`` module binds, every entry of the ``TABLES`` (protocol
latencies, Lustre rates) and the module ``SCALARS``. Each constant is set
alone to x0.9 and x1.1 over every point the paper rows
(``repro.perf.calibration.PAPER_TARGETS``) and the claims
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
local session in both precisions) with every record and table swapped
for a copy that logs each field and key read. A module scalar counts as
read when x0.1 or x10 moves any of those values. Each claim is listed
with its plant magnitude (plant / current value); past 10x it is a
structural ordering, not a calibration.

Run from the repository root (numpy only; ~9 minutes on one core of a
2-vCPU Xeon); CI compares the output with the committed
``sensitivity.json``:

    PYTHONPATH=src python tests/perf/sensitivity.py > tests/perf/sensitivity.json
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil
import sys

import repro
import repro.simnet
from paper_claims import CLAIMS, FIGURES, PROBES, Plant, row_points
from repro.apps.cg import run_cg
from repro.apps.common import SYSTEMS
from repro.apps.fft import run_fft
from repro.apps.matmul import run_matmul
from repro.apps.stream import run_stream
from repro.errors import ResourceExhaustedError
from repro.perf.calibration import PAPER_TARGETS
from repro.simnet import machines, node, transports

STEPS = (0.9, 1.1)
THRESHOLD = 1e-3  # a row "moves" past 0.1 %
STRUCTURAL = 10.0  # a plant this far from the current value is no calibration
TABLES = ((transports, "_PROTOCOL_LATENCY"), (machines, "LUSTRE_RATE"),
          (machines, "LUSTRE_CLIENT_RATE"))
SCALARS = ((node, "INTERSOCKET_RATE"), (transports, "_GRPC_SERIALIZE_DERATE"))
# Constants no configuration reads that stay, each for its reason: the
# verdict "unvalidated" with the note.
NOTES = {
    "machines.GIGABIT_ETHERNET.latency":
        "misrouted: _staged_transfer charges machine.fabric.latency (EDR's "
        "on Tegner) on Tegner's Ethernet gRPC path",
    "machines.GENERIC_CPU.serialize_rate":
        "localhost has one node, so nothing serializes; CPUModel needs a value",
}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_record(value) -> bool:
    return (dataclasses.is_dataclass(value) and not isinstance(value, type)
            and type(value).__dataclass_params__.frozen)


def live_constants() -> dict[str, tuple]:
    """``{key: (module, name, field)}`` for every live constant, keyed
    ``module.NAME.field`` (``module.NAME`` for a scalar). A record is keyed
    where ``machines`` binds it, since machines are built from there."""
    modules = [machines] + [
        importlib.import_module(f"repro.simnet.{info.name}")
        for info in pkgutil.iter_modules(repro.simnet.__path__)]
    live, seen = {}, set()
    for module in modules:
        for name, value in vars(module).items():
            if not _is_record(value) or id(value) in seen:
                continue
            seen.add(id(value))
            for field in dataclasses.fields(value):
                if _numeric(getattr(value, field.name)):
                    live[f"{_short(module)}.{name}.{field.name}"] = (
                        module, name, field.name)
    for module, name in TABLES:
        for key in getattr(module, name):
            live[f"{_short(module)}.{name}.{key}"] = (module, name, key)
    for module, name in SCALARS:
        live[f"{_short(module)}.{name}"] = (module, name, None)
    return dict(sorted(live.items()))


class _Patches:
    """``setattr``/``setitem`` that :meth:`undo` reverts (a Plant target)."""

    def __init__(self):
        self._undo = []

    def setattr(self, obj, name, value):
        self._undo.append((setattr, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def setitem(self, mapping, key, value):
        self._undo.append((mapping.__setitem__, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        for undo in reversed(self._undo):
            undo[0](*undo[1:])
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


def _logged_reads(live: dict, run) -> set:
    """The live keys read while ``run()`` runs: each record and table is
    swapped for a copy that logs its reads."""
    log: set = set()

    class LoggedDict(dict):
        def __getitem__(self, key):
            log.add(f"{self.key}.{key}")
            return dict.__getitem__(self, key)

    def logged_record(record, key):
        class Logged(type(record)):
            def __getattribute__(self, attr):
                log.add(f"{key}.{attr}")
                return object.__getattribute__(self, attr)

        copy = object.__new__(Logged)
        copy.__dict__.update(vars(record))
        return copy

    patches, swapped = _Patches(), set()
    for module, name, field in live.values():
        if field is None or (module, name) in swapped:
            continue
        swapped.add((module, name))
        current = getattr(module, name)
        if isinstance(current, dict):
            copy = LoggedDict(current)
            copy.key = f"{_short(module)}.{name}"
        else:
            copy = logged_record(current, f"{_short(module)}.{name}")
        patches.setattr(module, name, copy)
    try:
        run()
    finally:
        patches.undo()
    return log


def matrix() -> dict:
    live = live_constants()
    at = points()
    base = evaluate(at)
    base_rows, base_claims = rows(base), holding(base)
    base_configs = configurations()
    read = _logged_reads(live, lambda: (evaluate(at), configurations()))
    constants = {}
    for key, (module, name, field) in live.items():
        current = Plant(module, name, field, None).current()
        moved, flipped, points_moved = {}, set(), set()
        for scale in STEPS:
            plant = Plant(module, name, field, _scaled(current, scale))
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
        elif field is None:
            entry["verdict"] = "unvalidated" if any(
                _planted(Plant(module, name, None, current * scale),
                         lambda: (evaluate(at), configurations()))
                != (base, base_configs)
                for scale in (0.1, 10.0)) else "deleted"
        else:
            entry["verdict"] = "unvalidated" if key in read else "deleted"
        constants[key] = entry
    claims = {}
    for claim in CLAIMS:
        plant = claim.plant
        ratio = plant.value / plant.current()
        claims[claim.name] = {
            "plant": ".".join(filter(None, (_short(plant.module), plant.name,
                                            plant.field))),
            "ratio": float(f"{ratio:.4g}"),
            "structural": not 1 / STRUCTURAL <= ratio <= STRUCTURAL,
        }
    return {"steps": list(STEPS), "threshold": THRESHOLD, "points": len(at),
            "row_change": "percent, per step", "constants": constants,
            "claims": claims}


if __name__ == "__main__":
    json.dump(matrix(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
