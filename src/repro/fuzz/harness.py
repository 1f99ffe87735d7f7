"""Differential execution matrix: run one program through every cell.

A *cell* is one configuration of the execution matrix — frontend (eager
interpreter / Session / ``@repro.function`` trace) × executor lane
(fast-path / legacy) × optimizer (on / off) × collective algorithm
(ring / tree), plus one shape-only Session cell.
The baseline cell is the most
literal interpretation of the graph: Session, legacy lane, optimizer
off, ring collectives. Every other cell must reproduce the baseline's
fetches **byte for byte** — same dtype, same shape, same bits, NaNs
included — because nothing in the matrix is allowed to change numerics,
only scheduling and lowering.

On top of byte identity the harness checks these invariants:

* the fast-path and reference (``executor_fast_path=False``) executors
  are alternative drivers of the *same* plan, so identical configs across
  that axis must report the *identical* simulated completion time
  (``==``, no tolerance);
* plan-time optimization may only help: optimized sim time must not
  exceed unoptimized sim time (within float slack);
* the shape-only cell runs the same plan on specs instead of values —
  every op priced by its record from the same specs — so it must report
  the concrete cell's simulated time bit for bit, and fetch exactly the
  baseline values' dtypes and shapes;
* the two executors account the same plan's device memory alike: a
  fast-path cell's pools end with the allocation counts and bytes in
  use of its reference twin's. (Not the peaks: at same-instant ties the
  executors order allocations and frees differently.)

Algorithm cells are excluded from time comparison — changing the
collective schedule legitimately changes the timeline — and the eager
interpreter has no clock at all.

Independently of the baseline, every fetched value's dtype and shape must
be compatible with the static spec its op's shape function produced when
the graph was built (NumPy, through the kernels, is the reference).

A cell runner takes a *build step* — :meth:`Program.materialize`, or a
repro script's ``body`` — so the script a shrunk divergence ships as is
judged by the same code that found it (:func:`has_divergence`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, NamedTuple, Optional

import numpy as np

import repro
from repro.core.kernels.registry import KernelContext, ResourceManager
from repro.core.tensor import SymbolicValue, Tensor, TensorShape
from repro.errors import ReproError, VerificationError
from repro.eager import evaluate
from repro.fuzz.generator import Built, Program

__all__ = [
    "BASELINE",
    "Cell",
    "CellRun",
    "Divergence",
    "ProgramReport",
    "matrix_cells",
    "run_cell",
    "run_program",
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
    shape_only: bool = False  # feeds become their specs; no data

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
        if self.shape_only:
            parts.append("shape")
        return "/".join(parts)

    @property
    def timeable(self) -> bool:
        """Whether this cell participates in sim-time invariants."""
        return self.frontend == "session" and self.algorithm is None


BASELINE = Cell(frontend="session", fast_path=False, optimize=False)


@dataclass
class CellRun:
    """Outcome of one program under one cell."""

    cell: Cell
    # one ndarray per fetch (a SymbolicValue where a shape-only run has
    # no data)
    values: Optional[list] = None
    sim_time: Optional[float] = None
    error: Optional[str] = None  # repr of the raised error, if any
    verifier_rejected: bool = False
    # (fetch index, detail) per value contradicting its static spec
    spec_errors: list[tuple[int, str]] = field(default_factory=list)
    # pool name -> (allocations, bytes in use) after the run (cells that
    # run a Session)
    memory: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Divergence:
    """One detected disagreement between a cell and its reference."""

    # "value" | "dtype" | "shape" | "error" | "verifier" | "sim_time" |
    # "static_spec" | "memory"
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
        # The mode the paper's figures run in: specs, no data. Its twin
        # for simulated time is the concrete session/fast/opt cell.
        Cell(frontend="session", fast_path=True, optimize=True,
             shape_only=True),
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
        shape_only=cell.shape_only,
    )


class _Subject(NamedTuple):
    """What a cell run builds, and with what."""

    # Program.materialize's contract: build(algorithm, placeholders=None)
    build: Callable[..., Built]
    feeds: list  # one value per placeholder, in program order
    gpus: int


def _subject(program: Program) -> _Subject:
    feeds = [program.instrs[i].value for i in program.placeholder_indices]
    return _Subject(program.materialize, feeds, program.gpus)


def run_cell(program: Program, cell: Cell) -> CellRun:
    """Execute ``program`` under ``cell``; never raises on graph errors."""
    return _run(_subject(program), cell)


def _run(subject: _Subject, cell: Cell) -> CellRun:
    # Drawn programs legitimately hit sqrt(-x), x/0, exp overflow, ...;
    # the resulting NaN/inf bit patterns are exactly what the matrix
    # compares, so the warnings are noise.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        try:
            if cell.frontend == "eager":
                return _run_eager(subject, cell)
            if cell.frontend == "session":
                return _run_session(subject, cell)
            if cell.frontend == "function":
                return _run_function(subject, cell)
            raise ValueError(f"unknown frontend {cell.frontend!r}")
        except VerificationError as exc:
            return CellRun(cell=cell, error=repr(exc), verifier_rejected=True)
        except (ReproError, ValueError, TypeError, ZeroDivisionError,
                FloatingPointError, OverflowError, IndexError,
                KeyError) as exc:
            return CellRun(cell=cell, error=repr(exc))


def _np_dtype(value: Any) -> np.dtype:
    """A fetched value's element type as NumPy names it (a spec's too)."""
    return (value.dtype.np_dtype if isinstance(value, SymbolicValue)
            else value.dtype)


def _finished(cell: Cell, fetch_tensors: list[Tensor], values: Any,
              session: Optional["repro.Session"] = None) -> CellRun:
    """A successful run, with each value checked against its static spec."""
    if not isinstance(values, list):
        values = [values]
    arrays = [v if isinstance(v, SymbolicValue) else np.asarray(v)
              for v in values]
    spec_errors = [
        (index, f"{t.name} is statically {t.dtype.name} {t.shape}, the "
                f"value is {_np_dtype(a)} {a.shape}")
        for index, (t, a) in enumerate(zip(fetch_tensors, arrays))
        if _np_dtype(a) != t.dtype.np_dtype
        or not t.shape.is_compatible_with(TensorShape(a.shape))
    ]
    if session is None:
        return CellRun(cell=cell, values=arrays, spec_errors=spec_errors)
    pools = session.master.runtime.memory_pools
    return CellRun(cell=cell, values=arrays, sim_time=float(session.env.now),
                   spec_errors=spec_errors,
                   memory={name: (pool.alloc_count, pool.in_use)
                           for name, pool in pools.items()})


def _run_eager(subject: _Subject, cell: Cell) -> CellRun:
    with repro.Graph().as_default():
        built = subject.build(cell.algorithm)
        ctx = KernelContext(feeds=dict(built.feeds),
                            resources=ResourceManager("eager"))
        values = evaluate(built.fetch_tensors, built.feeds, ctx)
    return _finished(cell, built.fetch_tensors, values)


def _run_session(subject: _Subject, cell: Cell) -> CellRun:
    graph = repro.Graph()
    with graph.as_default():
        built = subject.build(cell.algorithm)
    config = _session_config(subject.gpus, cell)
    feeds = {name: SymbolicValue.of(value) if cell.shape_only else value
             for name, value in built.feeds.items()}
    with repro.Session(graph=graph, config=config) as sess:
        values = sess.run(built.fetch_tensors, feed_dict=feeds)
    return _finished(cell, built.fetch_tensors, values, sess)


def _run_function(subject: _Subject, cell: Cell) -> CellRun:
    fetch_tensors: list[Tensor] = []

    def traced(*args):
        built = subject.build(cell.algorithm, args)
        fetch_tensors[:] = built.fetch_tensors
        return built.fetch_tensors

    # One trace name for every build step, so a repro script's traced
    # graph is named op for op like the campaign's.
    fn = repro.function(traced, config=_session_config(subject.gpus, cell))
    values = fn(*subject.feeds)
    return _finished(cell, fetch_tensors, values, fn.session)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _compare_values(reference: CellRun, run: CellRun) -> list[Divergence]:
    diffs: list[Divergence] = []
    assert reference.values is not None and run.values is not None
    for index, (want, got) in enumerate(zip(reference.values, run.values)):
        want = np.asarray(want)
        if want.dtype != _np_dtype(got):
            diffs.append(Divergence(
                kind="dtype", cell=run.cell, fetch=index,
                detail=f"baseline {want.dtype} != {_np_dtype(got)}",
            ))
            continue
        if want.shape != got.shape:
            diffs.append(Divergence(
                kind="shape", cell=run.cell, fetch=index,
                detail=f"baseline {want.shape} != {got.shape}",
            ))
            continue
        if isinstance(got, SymbolicValue):
            continue  # a spec has no bytes to compare
        got = np.asarray(got)
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


def _time_invariants(runs: Iterable[CellRun]) -> list[Divergence]:
    diffs: list[Divergence] = []
    timed = {
        run.cell: run for run in runs
        if run.ok and run.cell.timeable and run.sim_time is not None
    }
    for cell, run in timed.items():
        if cell.shape_only:
            concrete = timed.get(replace(cell, shape_only=False))
            if concrete and run.sim_time != concrete.sim_time:
                diffs.append(Divergence(
                    kind="sim_time", cell=cell,
                    detail=(f"shape-only t={run.sim_time!r} != concrete "
                            f"t={concrete.sim_time!r} for the same plan"),
                ))
            continue
        legacy = timed.get(replace(cell, fast_path=False))
        if cell.fast_path and legacy and run.sim_time != legacy.sim_time:
            diffs.append(Divergence(
                kind="sim_time", cell=cell,
                detail=(f"fast-path t={run.sim_time!r} != legacy "
                        f"t={legacy.sim_time!r} for the same plan"),
            ))
        unopt = timed.get(replace(cell, optimize=False))
        if (cell.optimize and unopt
                and run.sim_time > unopt.sim_time + _SIM_SLACK):
            diffs.append(Divergence(
                kind="sim_time", cell=cell,
                detail=(f"optimized t={run.sim_time!r} slower than "
                        f"unoptimized t={unopt.sim_time!r}"),
            ))
    return diffs


def _memory_invariants(runs: Iterable[CellRun]) -> list[Divergence]:
    """Each fast-path cell's pools against its reference twin's."""
    accounted = {run.cell: run.memory for run in runs
                 if run.ok and run.memory is not None}
    diffs: list[Divergence] = []
    for cell, memory in accounted.items():
        reference = accounted.get(replace(cell, fast_path=False))
        if cell.fast_path and reference is not None and memory != reference:
            differ = {name: (pool, reference.get(name))
                      for name, pool in memory.items()
                      if pool != reference.get(name)}
            diffs.append(Divergence(
                kind="memory", cell=cell,
                detail=(f"(allocations, bytes in use) fast-path != "
                        f"reference: {differ}"),
            ))
    return diffs


# ---------------------------------------------------------------------------
# whole-matrix driver
# ---------------------------------------------------------------------------

def run_program(program: Program,
                cells: Optional[list[Cell]] = None) -> ProgramReport:
    """Run the full matrix over one program and collect divergences."""
    report = ProgramReport(program=program)
    subject = _subject(program)
    baseline = _run(subject, BASELINE)
    report.runs[BASELINE.label() + " [baseline]"] = baseline
    if baseline.error is not None:
        # The generator only emits programs it believes are valid, so a
        # baseline failure is itself a finding (generator or runtime).
        report.divergences.append(_baseline_failed(baseline))
        return report
    report.divergences.extend(_spec_divergences(baseline))
    for cell in (cells if cells is not None else matrix_cells(program)):
        run = _run(subject, cell)
        report.runs[cell.label()] = run
        report.divergences.extend(compare_runs(baseline, run))
    report.divergences.extend(_time_invariants(report.runs.values()))
    report.divergences.extend(_memory_invariants(report.runs.values()))
    return report


def _baseline_failed(baseline: CellRun) -> Divergence:
    if baseline.verifier_rejected:
        return Divergence(kind="verifier", cell=BASELINE,
                          detail=f"verifier rejected the baseline: "
                                 f"{baseline.error}")
    return Divergence(kind="error", cell=BASELINE,
                      detail=f"baseline failed: {baseline.error}")


def _judge(subject: _Subject, cell: Cell
           ) -> tuple[CellRun, list[Divergence]]:
    """The baseline run, and ``cell``'s divergences by the campaign's
    checks: bytes and static specs against the baseline, simulated time
    against its timing twins — the other executor lane and the other
    optimizer setting, or for the shape-only cell its concrete twin —
    and memory accounting against the other executor lane."""
    baseline = _run(subject, BASELINE)
    if baseline.error is not None:
        return baseline, [_baseline_failed(baseline)]
    runs = {BASELINE: baseline}

    def run_of(target: Cell) -> CellRun:
        if target not in runs:
            runs[target] = _run(subject, target)
        return runs[target]

    run = run_of(cell)
    found = compare_runs(baseline, run)
    if cell.timeable:
        twins = (
            [replace(cell, shape_only=False)] if cell.shape_only
            else [replace(cell, fast_path=not cell.fast_path),
                  replace(cell, optimize=not cell.optimize)]
        )
        for twin in twins:
            found += _time_invariants([run, run_of(twin)])
    if cell.frontend != "eager":
        lane_twin = run_of(replace(cell, fast_path=not cell.fast_path))
        found += _memory_invariants([run, lane_twin])
    return baseline, found


def has_divergence(program: Program, cell: Cell,
                   failure: Optional[str] = None) -> bool:
    """Does ``cell`` still disagree with the baseline on ``program``,
    by bytes, static specs, simulated time or memory accounting?

    The shrinker's oracle: candidates whose *baseline* breaks are
    invalid reductions (they changed the program, not just shrank the
    failure) and count as non-reproducing — unless ``cell`` *is* the
    baseline, whose own failure (a kernel caught contradicting its
    record, say) is then the divergence: it reproduces while the baseline
    still raises ``failure``, the original error's type name
    (:func:`error_type`; any error when ``None``).
    """
    baseline, found = _judge(_subject(program), cell)
    if baseline.error is None:
        return bool(found)
    return cell == BASELINE and failure in (None, error_type(baseline.error))


def error_type(error: str) -> str:
    """The exception class name of a recorded :attr:`CellRun.error`."""
    return error.split("(", 1)[0]


def _script_divergences(body: Callable, feeds: list, gpus: int,
                        cell: Cell) -> list[Divergence]:
    """A repro script's verdict (:meth:`Program.to_python`): its
    ``body(*placeholders, algorithm=...)`` judged as :func:`has_divergence`
    judged the program, a failing baseline included."""
    def build(algorithm: Optional[str] = None,
              placeholders: Optional[list] = None) -> Built:
        built = Built()
        if placeholders is None:
            placeholders = [
                repro.placeholder(v.dtype, shape=list(v.shape),
                                  name=f"script_ph_{pos}")
                for pos, v in enumerate(feeds)
            ]
            built.feeds = {ph.name: v for ph, v in zip(placeholders, feeds)}
        built.fetch_tensors = body(*placeholders,
                                   algorithm=algorithm or "ring")
        return built

    return _judge(_Subject(build, feeds, gpus), cell)[1]
