"""Execution matrix: cell enumeration, byte comparison, divergences."""

import numpy as np

from repro.core.kernels.registry import override_kernel
from repro.fuzz.generator import GeneratorOptions, Program, generate
from repro.fuzz.harness import (
    BASELINE,
    Cell,
    CellRun,
    compare_runs,
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
        outputs, cost = original(op, inputs, ctx)
        if ctx.env is None and isinstance(outputs[0], np.ndarray):
            outputs = [outputs[0] + np.asarray(
                1, dtype=outputs[0].dtype
            )]
        return outputs, cost

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
    # Mul returns float64 whatever its shape function promised.
    program = _mul_seed()
    from repro.core.kernels.registry import get_kernel

    original = get_kernel("Mul")

    def widened(op, inputs, ctx):
        outputs, cost = original(op, inputs, ctx)
        if not ctx.symbolic:
            outputs = [np.asarray(outputs[0], dtype=np.float64)]
        return outputs, cost

    fetched_mul = Program(
        instrs=program.instrs, world=program.world, seed=program.seed,
        fetches=[(i, 0) for i, ins in enumerate(program.instrs)
                 if ins.op_type == "Mul" and ins.out_dtypes[0] != "float64"],
    )
    assert fetched_mul.fetches and run_program(fetched_mul).ok
    with override_kernel("Mul", widened):
        report = run_program(fetched_mul)
    assert {d.kind for d in report.divergences} == {"static_spec"}
    assert BASELINE in {d.cell for d in report.divergences}


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
