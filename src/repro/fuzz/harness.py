"""Differential execution matrix: run one program through every cell.

A *cell* is one configuration of the execution matrix — frontend (eager
interpreter / Session / ``@repro.function`` trace) × executor lane
(fast-path / legacy) × optimizer (on / off, plus ``verify_plans``) ×
collective algorithm (ring / tree). The baseline cell is the most
literal interpretation of the graph: Session, legacy lane, optimizer
off, ring collectives. Every other cell must reproduce the baseline's
fetches **byte for byte** — same dtype, same shape, same bits, NaNs
included — because nothing in the matrix is allowed to change numerics,
only scheduling and lowering.

On top of byte identity the harness checks two sim-time invariants:

* the fast-path and reference (``executor_fast_path=False``) executors
  are alternative drivers of the *same* plan, so identical configs across
  that axis must report the *identical* simulated completion time
  (``==``, no tolerance);
* plan-time optimization may only help: optimized sim time must not
  exceed unoptimized sim time (within float slack).

Algorithm cells are excluded from time comparison — changing the
collective schedule legitimately changes the timeline — and the eager
interpreter has no clock at all.

Independently of the baseline, every fetched value's dtype and shape must
be compatible with the static spec its op's shape function produced when
the graph was built (NumPy, through the kernels, is the reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

import repro
from repro.core.kernels.registry import KernelContext, ResourceManager
from repro.core.tensor import Tensor, TensorShape
from repro.errors import ReproError, VerificationError
from repro.eager import evaluate
from repro.fuzz.generator import Program

__all__ = [
    "BASELINE",
    "Cell",
    "CellRun",
    "Divergence",
    "ProgramReport",
    "matrix_cells",
    "run_cell",
    "run_program",
    "run_script_body",
]

# Slack on "optimized is no slower than unoptimized" only (seed 403 at
# --ops 24 --max-world 8 reads 0.5 ns slower optimized, in both lanes;
# cause unverified). Lane equality takes none.
_SIM_SLACK = 1e-9


@dataclass(frozen=True)
class Cell:
    """One point of the execution matrix."""

    frontend: str = "session"  # "eager" | "session" | "function"
    fast_path: bool = True
    optimize: bool = True
    algorithm: Optional[str] = None  # allreduce override; None = as built
    verify: bool = False  # verify_plans=True differential check

    def label(self) -> str:
        if self.frontend == "eager":
            return "eager"
        parts = [
            self.frontend,
            "fast" if self.fast_path else "legacy",
            "opt" if self.optimize else "noopt",
        ]
        if self.algorithm:
            parts.append(self.algorithm)
        if self.verify:
            parts.append("verify")
        return "/".join(parts)

    def script_kwargs(self) -> str:
        """Constructor kwargs as source text (repro-script codegen)."""
        fields = [f"frontend={self.frontend!r}"]
        if self.frontend != "eager":
            fields += [
                f"fast_path={self.fast_path!r}",
                f"optimize={self.optimize!r}",
                f"algorithm={self.algorithm!r}",
                f"verify={self.verify!r}",
            ]
        return ", ".join(fields)

    @property
    def timeable(self) -> bool:
        """Whether this cell participates in sim-time invariants."""
        return (
            self.frontend == "session"
            and self.algorithm is None
            and not self.verify
        )


BASELINE = Cell(frontend="session", fast_path=False, optimize=False)


@dataclass
class CellRun:
    """Outcome of one program under one cell."""

    cell: Cell
    values: Optional[list] = None  # one ndarray per fetch
    sim_time: Optional[float] = None
    error: Optional[str] = None  # repr of the raised error, if any
    verifier_rejected: bool = False
    # (fetch index, detail) per value contradicting its static spec
    spec_errors: list[tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Divergence:
    """One detected disagreement between a cell and its reference."""

    # "value" | "dtype" | "shape" | "error" | "verifier" | "sim_time" |
    # "static_spec"
    kind: str
    cell: Cell
    fetch: Optional[int] = None  # index into program.fetches, if per-fetch
    detail: str = ""

    def describe(self) -> str:
        where = f" fetch[{self.fetch}]" if self.fetch is not None else ""
        return f"[{self.kind}] {self.cell.label()}{where}: {self.detail}"


@dataclass
class ProgramReport:
    """Everything one program's trip through the matrix produced."""

    program: Program
    runs: dict[str, CellRun] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "seed": self.program.seed,
            "ops": self.program.op_count(),
            "world": self.program.world,
            "fetches": len(self.program.fetches),
            "ok": self.ok,
            "cells": {
                label: {
                    "ok": run.ok,
                    "error": run.error,
                    "sim_time": run.sim_time,
                }
                for label, run in self.runs.items()
            },
            "divergences": [d.describe() for d in self.divergences],
        }


# ---------------------------------------------------------------------------
# matrix enumeration
# ---------------------------------------------------------------------------

def matrix_cells(program: Program, subset: Optional[list[str]] = None
                 ) -> list[Cell]:
    """Every cell the program is eligible for (baseline excluded).

    ``subset`` filters by substring match against cell labels — the
    CLI's ``--matrix`` argument.
    """
    cells: list[Cell] = [
        # Session lane × optimizer grid (baseline is legacy/noopt).
        Cell(frontend="session", fast_path=True, optimize=False),
        Cell(frontend="session", fast_path=False, optimize=True),
        Cell(frontend="session", fast_path=True, optimize=True),
        # Static verifier as a differential observer: a verifier crash
        # or rejection of a graph every other cell executes cleanly is
        # itself a divergence (verifier false positive).
        Cell(frontend="session", fast_path=True, optimize=True,
             verify=True),
        # Tracing frontend over both lanes.
        Cell(frontend="function", fast_path=True, optimize=True),
        Cell(frontend="function", fast_path=False, optimize=True),
        # Direct interpreter: no simulator, no planner, no placement.
        Cell(frontend="eager"),
    ]
    if program.has_allreduce:
        cells += [
            Cell(frontend="session", fast_path=True, optimize=True,
                 algorithm="tree"),
            Cell(frontend="session", fast_path=False, optimize=True,
                 algorithm="tree"),
            Cell(frontend="function", fast_path=True, optimize=True,
                 algorithm="tree"),
        ]
    if subset:
        cells = [
            c for c in cells
            if any(token in c.label() for token in subset)
        ]
    return cells


# ---------------------------------------------------------------------------
# running one cell
# ---------------------------------------------------------------------------

def _session_config(gpus: int, cell: Cell) -> "repro.SessionConfig":
    return repro.SessionConfig(
        num_gpus=gpus,
        graph_optimization=cell.optimize,
        executor_fast_path=cell.fast_path,
        verify_plans=cell.verify,
    )


def run_cell(program: Program, cell: Cell) -> CellRun:
    """Execute ``program`` under ``cell``; never raises on graph errors."""
    # Drawn programs legitimately hit sqrt(-x), x/0, exp overflow, ...;
    # the resulting NaN/inf bit patterns are exactly what the matrix
    # compares, so the warnings are noise.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _run_cell_quiet(program, cell)


def _run_cell_quiet(program: Program, cell: Cell) -> CellRun:
    try:
        if cell.frontend == "eager":
            return _run_eager(program, cell)
        if cell.frontend == "session":
            return _run_session(program, cell)
        if cell.frontend == "function":
            return _run_function(program, cell)
        raise ValueError(f"unknown frontend {cell.frontend!r}")
    except VerificationError as exc:
        return CellRun(cell=cell, error=repr(exc), verifier_rejected=True)
    except (ReproError, ValueError, TypeError, ZeroDivisionError,
            FloatingPointError, OverflowError, IndexError, KeyError) as exc:
        return CellRun(cell=cell, error=repr(exc))


def _finished(cell: Cell, fetch_tensors: list[Tensor], values: Any,
              sim_time: Optional[float] = None) -> CellRun:
    """A successful run, with each value checked against its static spec."""
    if not isinstance(values, list):
        values = [values]
    arrays = [np.asarray(v) for v in values]
    spec_errors = [
        (index, f"{t.name} is statically {t.dtype.name} {t.shape}, the "
                f"value is {a.dtype} {a.shape}")
        for index, (t, a) in enumerate(zip(fetch_tensors, arrays))
        if a.dtype != t.dtype.np_dtype
        or not t.shape.is_compatible_with(TensorShape(a.shape))
    ]
    return CellRun(cell=cell, values=arrays, sim_time=sim_time,
                   spec_errors=spec_errors)


def _run_eager(program: Program, cell: Cell) -> CellRun:
    graph = repro.Graph()
    with graph.as_default():
        built = program.materialize()
        ctx = KernelContext(
            feeds=dict(built.feeds),
            resources=ResourceManager("eager"),
        )
        values = evaluate(built.fetch_tensors, built.feeds, ctx)
    return _finished(cell, built.fetch_tensors, values)


def _run_session(program: Program, cell: Cell) -> CellRun:
    graph = repro.Graph()
    with graph.as_default():
        built = program.materialize(algorithm=cell.algorithm)
    config = _session_config(program.gpus, cell)
    with repro.Session(graph=graph, config=config) as sess:
        values = sess.run(built.fetch_tensors, feed_dict=dict(built.feeds))
        sim_time = float(sess.env.now)
    return _finished(cell, built.fetch_tensors, values, sim_time)


def _run_function(program: Program, cell: Cell) -> CellRun:
    ph_indices = program.placeholder_indices
    feed_arrays = [program.instrs[i].value for i in ph_indices]
    fetch_tensors: list[Tensor] = []

    def traced(*args):
        by_index = dict(zip(ph_indices, args))
        built = program.materialize(
            algorithm=cell.algorithm,
            placeholder_lookup=lambda index: by_index[index],
        )
        fetch_tensors[:] = built.fetch_tensors
        return built.fetch_tensors

    fn = repro.function(
        traced,
        name=f"fuzz_seed_{program.seed}",
        config=_session_config(program.gpus, cell),
    )
    values = fn(*feed_arrays)
    sim_time = (
        float(fn.session.env.now) if fn.session is not None else None
    )
    return _finished(cell, fetch_tensors, values, sim_time)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _compare_values(reference: CellRun, run: CellRun) -> list[Divergence]:
    diffs: list[Divergence] = []
    assert reference.values is not None and run.values is not None
    for index, (want, got) in enumerate(zip(reference.values, run.values)):
        want = np.asarray(want)
        got = np.asarray(got)
        if want.dtype != got.dtype:
            diffs.append(Divergence(
                kind="dtype", cell=run.cell, fetch=index,
                detail=f"baseline {want.dtype} != {got.dtype}",
            ))
            continue
        if want.shape != got.shape:
            diffs.append(Divergence(
                kind="shape", cell=run.cell, fetch=index,
                detail=f"baseline {want.shape} != {got.shape}",
            ))
            continue
        # tobytes() compares exact bit patterns: NaN==NaN, -0.0!=0.0.
        if want.tobytes() != got.tobytes():
            delta = ""
            if np.issubdtype(want.dtype, np.floating):
                with np.errstate(invalid="ignore"):
                    magnitude = np.nanmax(np.abs(
                        want.astype(np.float64) - got.astype(np.float64)
                    )) if want.size else 0.0
                delta = f" (max |delta| {magnitude:g})"
            diffs.append(Divergence(
                kind="value", cell=run.cell, fetch=index,
                detail=f"bytes differ{delta}",
            ))
    return diffs


def _spec_divergences(run: CellRun) -> list[Divergence]:
    return [
        Divergence(kind="static_spec", cell=run.cell, fetch=index,
                   detail=detail)
        for index, detail in run.spec_errors
    ]


def compare_runs(reference: CellRun, run: CellRun) -> list[Divergence]:
    """Divergences of ``run`` against the byte-identity ``reference``
    (plus ``run``'s own values against their static specs)."""
    if reference.error is not None:
        # A broken baseline is reported once by the caller, not per cell.
        return []
    if run.verifier_rejected:
        return [Divergence(
            kind="verifier", cell=run.cell,
            detail=f"verifier rejected an executable graph: {run.error}",
        )]
    if run.error is not None:
        return [Divergence(
            kind="error", cell=run.cell,
            detail=f"baseline succeeded, cell raised {run.error}",
        )]
    return _compare_values(reference, run) + _spec_divergences(run)


def _time_invariants(runs: dict[str, CellRun]) -> list[Divergence]:
    diffs: list[Divergence] = []
    timed = {
        run.cell: run for run in runs.values()
        if run.ok and run.cell.timeable and run.sim_time is not None
    }
    for cell, run in timed.items():
        if cell.fast_path:
            continue
        twin = timed.get(replace(cell, fast_path=True))
        if twin is None:
            continue
        if run.sim_time != twin.sim_time:
            diffs.append(Divergence(
                kind="sim_time", cell=twin.cell,
                detail=(
                    f"fast-path t={twin.sim_time!r} != legacy "
                    f"t={run.sim_time!r} for the same plan"
                ),
            ))
    for cell, run in timed.items():
        if not cell.optimize:
            continue
        unopt = timed.get(replace(cell, optimize=False))
        if unopt is None:
            continue
        if run.sim_time > unopt.sim_time + _SIM_SLACK:
            diffs.append(Divergence(
                kind="sim_time", cell=cell,
                detail=(
                    f"optimized t={run.sim_time!r} slower than "
                    f"unoptimized t={unopt.sim_time!r}"
                ),
            ))
    return diffs


# ---------------------------------------------------------------------------
# whole-matrix driver
# ---------------------------------------------------------------------------

def run_program(program: Program,
                cells: Optional[list[Cell]] = None) -> ProgramReport:
    """Run the full matrix over one program and collect divergences."""
    report = ProgramReport(program=program)
    baseline = run_cell(program, BASELINE)
    report.runs[BASELINE.label() + " [baseline]"] = baseline
    if baseline.error is not None:
        # The generator only emits programs it believes are valid, so a
        # baseline failure is itself a finding (generator or runtime).
        report.divergences.append(Divergence(
            kind="error", cell=BASELINE,
            detail=f"baseline failed: {baseline.error}",
        ))
        return report
    report.divergences.extend(_spec_divergences(baseline))
    for cell in (cells if cells is not None else matrix_cells(program)):
        run = run_cell(program, cell)
        report.runs[cell.label()] = run
        report.divergences.extend(compare_runs(baseline, run))
    report.divergences.extend(_time_invariants(report.runs))
    return report


def has_divergence(program: Program, cell: Cell) -> bool:
    """Does ``cell`` still disagree with the baseline on ``program``?

    The shrinker's oracle: candidates whose *baseline* breaks are
    invalid reductions (they changed the program, not just shrank the
    failure) and count as non-reproducing.
    """
    baseline = run_cell(program, BASELINE)
    if baseline.error is not None:
        return False
    run = run_cell(program, cell)
    return bool(compare_runs(baseline, run))


def run_script_body(body, feeds, gpus, cell: Cell) -> None:
    """Entry point for emitted repro scripts (see Program.to_python).

    ``body(*placeholder_tensors, algorithm=...)`` rebuilds the graph in
    the current default graph and returns the fetch tensors. Runs the
    baseline and the diverging cell, asserting byte identity.
    """
    def run_one(target_cell: Cell) -> list:
        algorithm = target_cell.algorithm or "ring"
        if target_cell.frontend == "eager":
            graph = repro.Graph()
            with graph.as_default():
                phs = [
                    repro.placeholder(
                        value.dtype, shape=list(value.shape),
                        name=f"script_ph_{pos}",
                    )
                    for pos, value in enumerate(feeds)
                ]
                fetches = body(*phs, algorithm=algorithm)
                feed_map = {
                    ph.name: value for ph, value in zip(phs, feeds)
                }
                ctx = KernelContext(
                    feeds=dict(feed_map),
                    resources=ResourceManager("eager"),
                )
                return [np.asarray(v)
                        for v in evaluate(fetches, feed_map, ctx)]
        if target_cell.frontend == "function":
            fn = repro.function(
                lambda *args: body(*args, algorithm=algorithm),
                config=_session_config(gpus, target_cell),
            )
            values = fn(*feeds)
            return [np.asarray(v)
                    for v in (values if isinstance(values, list)
                              else [values])]
        graph = repro.Graph()
        with graph.as_default():
            phs = [
                repro.placeholder(
                    value.dtype, shape=list(value.shape),
                    name=f"script_ph_{pos}",
                )
                for pos, value in enumerate(feeds)
            ]
            fetches = body(*phs, algorithm=algorithm)
        config = _session_config(gpus, target_cell)
        with repro.Session(graph=graph, config=config) as sess:
            values = sess.run(
                fetches, feed_dict=dict(zip(phs, feeds))
            )
        return [np.asarray(v)
                for v in (values if isinstance(values, list) else [values])]

    want = run_one(BASELINE)
    got = run_one(cell)
    assert len(want) == len(got), (
        f"fetch count: baseline {len(want)} != cell {len(got)}"
    )
    for index, (w, g) in enumerate(zip(want, got)):
        assert w.dtype == g.dtype, (
            f"fetch[{index}] dtype: baseline {w.dtype} != {g.dtype}"
        )
        assert w.shape == g.shape, (
            f"fetch[{index}] shape: baseline {w.shape} != {g.shape}"
        )
        assert w.tobytes() == g.tobytes(), (
            f"fetch[{index}] bytes differ:\nbaseline={w!r}\ncell={g!r}"
        )
