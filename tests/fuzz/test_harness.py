"""Execution matrix: cell enumeration, byte comparison, divergences."""

from dataclasses import replace

import numpy as np

from repro.core.executor import ExecutionState
from repro.core.kernels.registry import op_def, override_kernel
from repro.core.tensor import SymbolicValue
from repro.fuzz.generator import GeneratorOptions, Instr, Program, generate
from repro.fuzz.harness import (
    BASELINE,
    Cell,
    CellRun,
    compare_runs,
    has_divergence,
    matrix_cells,
    run_cell,
    run_program,
)


def _collective_seed():
    """A seed whose program carries an allreduce (found, then pinned)."""
    for seed in range(200):
        program = generate(seed, GeneratorOptions(max_world=2))
        if program.has_allreduce:
            return seed, program
    raise AssertionError("no allreduce program in 200 seeds")


def test_matrix_without_collectives_skips_algorithm_cells():
    program = generate(0, GeneratorOptions(collectives=False))
    labels = [cell.label() for cell in matrix_cells(program)]
    assert "eager" in labels
    assert any(label.startswith("function/") for label in labels)
    # Collective-only cells (algorithm overrides) are skipped.
    assert not any("tree" in label for label in labels)


def test_matrix_with_allreduce_gains_algorithm_cells():
    _, program = _collective_seed()
    labels = [cell.label() for cell in matrix_cells(program)]
    assert any("tree" in label for label in labels)


def test_matrix_subset_filter():
    _, program = _collective_seed()
    cells = matrix_cells(program, subset=["tree"])
    assert cells and all("tree" in cell.label() for cell in cells)


def test_cell_labels_are_unique():
    _, program = _collective_seed()
    labels = [cell.label() for cell in matrix_cells(program)]
    assert len(labels) == len(set(labels))


def test_full_matrix_agrees_on_healthy_seeds():
    for seed in range(6):
        report = run_program(generate(seed))
        assert report.ok, [d.describe() for d in report.divergences]
        # Every cell actually ran and produced values.
        for label, run in report.runs.items():
            assert run.ok, (label, run.error)


def test_report_dict_shape():
    report = run_program(generate(0))
    data = report.to_dict()
    assert data["seed"] == 0
    assert data["ok"] is True
    assert data["cells"] and all(
        "sim_time" in cell for cell in data["cells"].values()
    )


def test_session_cells_record_sim_time_and_eager_does_not():
    report = run_program(generate(1))
    eager = report.runs["eager"]
    assert eager.sim_time is None
    baseline = report.runs[BASELINE.label() + " [baseline]"]
    assert baseline.sim_time is not None and baseline.sim_time >= 0


def test_compare_runs_flags_dtype_shape_and_value():
    cell = Cell(frontend="eager")
    want = CellRun(cell=BASELINE, values=[np.float32([1, 2])])
    same = CellRun(cell=cell, values=[np.float32([1, 2])])
    assert compare_runs(want, same) == []

    wrong_value = CellRun(cell=cell, values=[np.float32([1, 3])])
    kinds = [d.kind for d in compare_runs(want, wrong_value)]
    assert kinds == ["value"]

    wrong_dtype = CellRun(cell=cell, values=[np.float64([1, 2])])
    assert [d.kind for d in compare_runs(want, wrong_dtype)] == ["dtype"]

    wrong_shape = CellRun(cell=cell, values=[np.float32([[1, 2]])])
    assert [d.kind for d in compare_runs(want, wrong_shape)] == ["shape"]

    errored = CellRun(cell=cell, error="ValueError('boom')")
    assert [d.kind for d in compare_runs(want, errored)] == ["error"]


def test_nan_bytes_compare_equal_but_negative_zero_does_not():
    cell = Cell(frontend="eager")
    nan = np.float64([np.nan, 1.0])
    want = CellRun(cell=BASELINE, values=[nan.copy()])
    got = CellRun(cell=cell, values=[nan.copy()])
    assert compare_runs(want, got) == []  # NaN == NaN at the byte level

    got = CellRun(cell=cell, values=[np.float64([np.nan, -0.0 + 1.0])])
    assert compare_runs(want, got) == []
    got = CellRun(cell=cell, values=[np.float64([np.nan, -1.0])])
    assert [d.kind for d in compare_runs(want, got)] == ["value"]


def _buggy_eager_mul(original):
    """A Mul kernel that is wrong only in eager mode (ctx.env is None)."""

    def kernel(op, inputs, ctx):
        outputs = original(op, inputs, ctx)
        if ctx.env is None and isinstance(outputs[0], np.ndarray):
            outputs = [outputs[0] + np.asarray(
                1, dtype=outputs[0].dtype
            )]
        return outputs

    return kernel


def _mul_seed():
    for seed in range(200):
        program = generate(seed)
        uses_mul = any(ins.op_type == "Mul" for ins in program.instrs)
        if not uses_mul:
            continue
        # The Mul must actually feed a fetch for the bug to be visible.
        live = program.live_set()
        if any(program.instrs[i].op_type == "Mul" for i in live):
            return program
    raise AssertionError("no live Mul in 200 seeds")


def test_planted_eager_bug_is_caught_by_the_matrix():
    program = _mul_seed()
    assert run_program(program).ok  # healthy kernel: matrix agrees
    from repro.core.kernels.registry import get_kernel

    with override_kernel("Mul", _buggy_eager_mul(get_kernel("Mul"))):
        report = run_program(program)
        assert not report.ok
        eager_diffs = [
            d for d in report.divergences if d.cell.frontend == "eager"
        ]
        assert eager_diffs and all(
            d.kind == "value" for d in eager_diffs
        )
    # Kernel restored: the same program is healthy again.
    assert run_program(program).ok


def test_value_contradicting_its_static_spec_is_a_divergence():
    # A kernel wrong in *every* cell (so byte comparison sees nothing):
    # Mul returns float64 whatever its record states. A plan prices the
    # static Mul and checks what its kernel returns against the price, so
    # every concrete plan cell — the baseline first — fails at the kernel,
    # naming it; eager plans nothing and fetches a value contradicting its
    # static spec.
    program = _mul_seed()
    from repro.core.kernels.registry import get_kernel

    original = get_kernel("Mul")

    def widened(op, inputs, ctx):
        outputs = original(op, inputs, ctx)
        if not ctx.symbolic:
            outputs = [np.asarray(outputs[0], dtype=np.float64)]
        return outputs

    fetched_mul = Program(
        instrs=program.instrs, world=program.world, seed=program.seed,
        fetches=[(i, 0) for i, ins in enumerate(program.instrs)
                 if ins.op_type == "Mul" and ins.out_dtypes[0] != "float64"],
    )
    assert fetched_mul.fetches and run_program(fetched_mul).ok
    with override_kernel("Mul", widened):
        report = run_program(fetched_mul)
        runs = [run_cell(fetched_mul, cell)
                for cell in matrix_cells(fetched_mul)]
    assert [(d.kind, d.cell) for d in report.divergences] == [
        ("error", BASELINE)]
    caught = "InternalError('Mul kernel returned [float64 "
    assert caught in report.divergences[0].detail
    for run in runs:
        if run.cell.shape_only:
            # No kernel runs: the outputs are the specs the record states.
            assert run.ok and not run.spec_errors
        elif run.cell.frontend == "eager":
            assert run.ok and run.spec_errors
        else:
            assert run.error.startswith(caught), (run.cell.label(), run.error)
            assert "its record states [float32 " in run.error


def test_shape_only_cell_fetches_specs_on_the_concrete_clock():
    program = generate(0)
    (cell,) = matrix_cells(program, subset=["shape"])
    assert cell.label() == "session/fast/opt/shape"
    concrete = replace(cell, shape_only=False)
    report = run_program(program, cells=[cell, concrete])
    assert report.ok, [d.describe() for d in report.divergences]
    shape_run = report.runs[cell.label()]
    assert shape_run.sim_time == report.runs[concrete.label()].sim_time
    assert any(isinstance(v, SymbolicValue) for v in shape_run.values)


def test_run_time_shape_rule_defect_is_caught_by_the_fed_shape_plan(
        monkeypatch):
    # Right at build time, one trailing 1 too many over run-time specs.
    # The placeholder is [None], and a session plans the run for the fed
    # [2]: its plan prices the Mul with the run-time rule and checks what
    # the kernel returns against that price, so every concrete session
    # cell — the baseline first — fails at the kernel, naming it. The
    # shape-only cell fetches what the rule says, which contradicts the
    # static spec; the function frontend traces [2] and prices it with the
    # build-time rule, and eager feeds the rule arrays: both see nothing.
    x = np.float32([1.5, -2.0])
    program = Program(instrs=[
        Instr(op_type="Placeholder", value=x, out_dtypes=("float32",),
              out_shapes=((None,),)),
        Instr(op_type="Mul", inputs=((0, 0), (0, 0)),
              out_dtypes=("float32",), out_shapes=((None,),)),
    ], fetches=[(1, 0)], seed=0)
    assert run_program(program).ok
    definition = op_def("Mul")
    rule = definition.shape_fn

    def padded(inputs, attrs):
        specs = rule(inputs, attrs)
        if isinstance(inputs[0], SymbolicValue):
            return [(dtype, (*dims, 1)) for dtype, dims in specs]
        return specs

    monkeypatch.setattr(definition, "shape_fn", padded)
    report = run_program(program)
    runs = [run_cell(program, cell) for cell in matrix_cells(program)]
    assert [(d.kind, d.cell) for d in report.divergences] == [
        ("error", BASELINE)]
    caught = ("InternalError('Mul kernel returned [float32 (2,)]; its "
              "record states [float32 (2, 1)] [op: Mul]')")
    assert report.divergences[0].detail == f"baseline failed: {caught}"
    outcomes = {run.cell.label(): (run.error, run.spec_errors)
                for run in runs}
    assert outcomes == {
        "session/fast/noopt": (caught, []),
        "session/legacy/opt": (caught, []),
        "session/fast/opt": (caught, []),
        "session/fast/opt/shape": (None, [
            (0, "Mul:0 is statically float32 (?,), the value is float32 "
                "(2, 1)")]),
        "function/fast/opt": (None, []),
        "function/legacy/opt": (None, []),
        "eager": (None, []),
    }


def test_run_cell_captures_errors_instead_of_raising():
    program = generate(0)
    bad = program.clone()
    # Corrupt a fetch into a dangling reference upstream of execution.
    bad.instrs[-1].inputs = tuple(
        (src, out + 99) for src, out in bad.instrs[-1].inputs
    ) or bad.instrs[-1].inputs
    run = run_cell(bad, BASELINE)
    # Either the corruption was harmless (no inputs) or it was caught.
    assert run.ok or run.error is not None


def _leaky_fast_lane(allocate):
    """``ExecutionState.allocate`` with a planted fast-lane defect: a dead
    output's bytes are allocated and never given back."""

    def allocate_keeping_dead_outputs(state, item, outputs):
        pool = item.entry[2]
        if state.fast_path:
            pool.free = lambda nbytes: None  # shadows MemoryPool.free
        try:
            allocate(state, item, outputs)
        finally:
            pool.__dict__.pop("free", None)

    return allocate_keeping_dead_outputs


def test_planted_fast_lane_leak_is_a_memory_divergence(monkeypatch):
    # Seed 1 computes an output nothing reads. Values and clocks cannot
    # see a leak; the pools' bytes in use after the run can.
    program = generate(1)
    report = run_program(program)
    assert report.ok, [d.describe() for d in report.divergences]
    assert all(run.memory for label, run in report.runs.items()
               if run.cell.frontend == "session")
    monkeypatch.setattr(ExecutionState, "allocate",
                        _leaky_fast_lane(ExecutionState.allocate))
    report = run_program(program)
    flagged = {(d.kind, d.cell.label()) for d in report.divergences}
    assert flagged == {("memory", "session/fast/noopt"),
                       ("memory", "session/fast/opt"),
                       ("memory", "function/fast/opt")}
    # The shrinker's oracle judges a cell by the same invariant, against
    # the other executor lane, from either side.
    fast = Cell(frontend="session", fast_path=True, optimize=True)
    assert has_divergence(program, fast)
    assert has_divergence(program, replace(fast, fast_path=False))
    assert not has_divergence(program, Cell(frontend="eager"))
