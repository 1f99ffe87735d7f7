"""Shrinker: planted defects reduce to minimal, still-failing repros."""

import numpy as np
import pytest

import repro.core.session as session_module
from repro import analysis
from repro.core.kernels.registry import get_kernel, override_kernel
from repro.fuzz.generator import Instr, Program, generate
from repro.fuzz.harness import BASELINE, Cell, has_divergence, run_program
from repro.fuzz.shrinker import shrink

EAGER = Cell(frontend="eager")


def _buggy_eager_mul(original):
    """Wrong only under the eager interpreter (ctx.env is None)."""

    def kernel(op, inputs, ctx):
        outputs = original(op, inputs, ctx)
        if ctx.env is None and isinstance(outputs[0], np.ndarray):
            outputs = [outputs[0] + np.asarray(1, dtype=outputs[0].dtype)]
        return outputs

    return kernel


def _const(value):
    arr = np.asarray(value, dtype=np.float32)
    return Instr(op_type="Const", value=arr,
                 out_dtypes=("float32",), out_shapes=(arr.shape,))


def _binary(op_type, a, b, shape=(2,)):
    return Instr(op_type=op_type, inputs=(a, b),
                 out_dtypes=("float32",), out_shapes=(shape,))


def _padded_mul_program() -> Program:
    """A 12-instruction program whose only defect-reachable op is one Mul."""
    instrs = [
        _const([1.5, -2.0]),          # 0
        _const([0.5, 4.0]),           # 1
        _const([[1.0, 2.0], [3.0, 4.0]]),  # 2 decoy
        _binary("Add", (0, 0), (1, 0)),    # 3 decoy chain
        _binary("Sub", (3, 0), (0, 0)),    # 4 decoy chain
        _binary("Mul", (0, 0), (1, 0)),    # 5 <- the planted-bug site
        _binary("Add", (5, 0), (4, 0)),    # 6 propagates the bug
        _const([9.0, 9.0]),           # 7 decoy
        _binary("Maximum", (6, 0), (7, 0)),  # 8 propagates further
        _binary("Add", (2, 0), (2, 0), shape=(2, 2)),  # 9 decoy
        _binary("Sub", (9, 0), (2, 0), shape=(2, 2)),  # 10 decoy
        _binary("Add", (4, 0), (7, 0)),    # 11 decoy
    ]
    # Note (8, 0) masks the defect (Maximum against 9.0 swallows the
    # perturbation) — only (6, 0) exposes it, so fetch reduction has
    # real work to do.
    return Program(
        instrs=instrs,
        fetches=[(8, 0), (10, 0), (6, 0), (11, 0), (4, 0)],
        seed=424242,
    )


def test_shrinker_reduces_planted_bug_to_five_ops_or_fewer():
    program = _padded_mul_program()
    assert run_program(program).ok  # healthy: the matrix agrees
    with override_kernel("Mul", _buggy_eager_mul(get_kernel("Mul"))):
        report = run_program(program)
        assert not report.ok
        target = next(
            d.cell for d in report.divergences
            if d.cell.frontend == "eager"
        )
        result = shrink(program, target)
        # The acceptance bar: a 12-instruction failing graph converges
        # to a minimal repro of at most 5 instructions...
        assert result.ops <= 5, (
            f"shrunk to {result.ops} instrs: "
            f"{[i.op_type for i in result.program.instrs]}"
        )
        # ...that still contains the defective op and still fails.
        assert any(
            ins.op_type == "Mul" for ins in result.program.instrs
        )
        assert has_divergence(result.program, target)
        assert result.original_ops == 12
    # Kernel restored: the shrunk program is healthy again.
    assert not has_divergence(result.program, target)


def test_shrinker_on_generated_program():
    # Same planted bug, but on a generator-drawn graph (the real
    # campaign path): find a seed with a live Mul, break Mul, shrink.
    program = None
    for seed in range(200):
        candidate = generate(seed)
        live = candidate.live_set()
        if any(candidate.instrs[i].op_type == "Mul" for i in live):
            program = candidate
            break
    assert program is not None, "no live Mul in 200 seeds"
    with override_kernel("Mul", _buggy_eager_mul(get_kernel("Mul"))):
        report = run_program(program)
        assert not report.ok
        target = next(
            d.cell for d in report.divergences
            if d.cell.frontend == "eager"
        )
        result = shrink(program, target)
        assert result.ops <= 5
        assert result.ops < result.original_ops
        assert has_divergence(result.program, target)


def _exec_script(script: str, tmp_path) -> None:
    """Run an emitted repro script as ``__main__``."""
    path = tmp_path / "repro.py"
    path.write_text(script, encoding="utf-8")
    namespace = {"__name__": "__main__", "__file__": str(path)}
    exec(compile(script, str(path), "exec"), namespace)


def test_shrunk_repro_script_fails_buggy_and_passes_fixed(tmp_path):
    program = _padded_mul_program()
    with override_kernel("Mul", _buggy_eager_mul(get_kernel("Mul"))):
        result = shrink(program, EAGER)
        script = result.program.to_python(cell=EAGER)
        with pytest.raises(AssertionError):
            _exec_script(script, tmp_path)
    # Defect fixed (kernel restored): the same script now passes — the
    # property that lets corpus/ scripts double as regression tests.
    _exec_script(script, tmp_path)


def _skewed_fast_lane(launch_plan):
    """The dispatcher's runs end 1 us late: a defect only the simulated
    clock shows (every fetched byte is right)."""

    def launch(state):
        done = launch_plan(state)
        if done is None or not state.fast_path:
            return done

        def late():
            yield done
            yield state.env.timeout(1e-6)

        return state.env.process(late())

    return launch


def test_sim_time_divergence_shrinks_and_its_script_fails(
        tmp_path, monkeypatch, capsys):
    # Once the shrinker judged bytes only: a sim-time divergence did not
    # "reproduce", the program stayed whole and its script printed OK.
    program = generate(3)
    monkeypatch.setattr(session_module, "launch_plan",
                        _skewed_fast_lane(session_module.launch_plan))
    report = run_program(program)
    assert {d.kind for d in report.divergences} == {"sim_time"}
    target = report.divergences[0].cell
    assert target.label() == "session/fast/noopt"
    result = shrink(program, target)
    assert result.ops < result.original_ops
    script = result.program.to_python(cell=target)
    with pytest.raises(AssertionError, match=r"\[sim_time\]"):
        _exec_script(script, tmp_path)
    monkeypatch.undo()
    capsys.readouterr()
    _exec_script(script, tmp_path)
    assert capsys.readouterr().out.startswith("OK")


def test_static_spec_divergence_shrinks_and_its_script_fails(
        tmp_path, capsys):
    # A Mul that widens its output to float64 in *every* cell: bytes
    # agree everywhere. Once only the static spec check saw it, and the
    # script compared bytes only and printed OK while the defect lived.
    # Now the kernel check fails the baseline itself: the shrinker holds
    # that failure's type fixed, and the script reports it.
    drawn = next(
        p for p in map(generate, range(200))
        if any(p.instrs[i].op_type == "Mul" for i in p.live_set())
    )
    program = Program(
        instrs=drawn.instrs, world=drawn.world, seed=drawn.seed,
        fetches=[(i, 0) for i, ins in enumerate(drawn.instrs)
                 if ins.op_type == "Mul" and ins.out_dtypes[0] != "float64"],
    )
    original = get_kernel("Mul")

    def widened(op, inputs, ctx):
        outputs = original(op, inputs, ctx)
        if not ctx.symbolic:
            outputs = [np.asarray(outputs[0], dtype=np.float64)]
        return outputs

    with override_kernel("Mul", widened):
        report = run_program(program)
        assert [(d.kind, d.cell) for d in report.divergences] == [
            ("error", BASELINE)]
        target = report.divergences[0].cell
        result = shrink(program, target)
        assert result.ops < result.original_ops
        assert any(ins.op_type == "Mul" for ins in result.program.instrs)
        script = result.program.to_python(cell=target)
        with pytest.raises(AssertionError,
                           match=r"\[error\].*InternalError\('Mul kernel"):
            _exec_script(script, tmp_path)
    capsys.readouterr()
    _exec_script(script, tmp_path)
    assert capsys.readouterr().out.startswith("OK")


def _rejecting_mul(verify_graph):
    """A verifier with one planted false positive: any graph with a Mul."""

    def planted(target, **kwargs):
        report = verify_graph(target, **kwargs)
        for op in kwargs.get("ops") or ():
            if op.type == "Mul":
                report.emit("graph/cycle", "planted: a Mul op", op=op.name)
        return report

    return planted


def test_verifier_false_positive_is_named_and_shrinks_to_the_mul(
        monkeypatch):
    # Every Session cell verifies, the baseline first: the program runs
    # cleanly without the planted rule, so the baseline's rejection is a
    # verifier false positive, reported once.
    program = _padded_mul_program()
    monkeypatch.setattr(analysis, "verify_graph",
                        _rejecting_mul(analysis.verify_graph))
    report = run_program(program)
    assert [(d.kind, d.cell) for d in report.divergences] == [
        ("verifier", BASELINE)]
    assert "planted: a Mul op" in report.divergences[0].detail
    result = shrink(program, BASELINE)
    assert result.ops <= 5 and result.ops < result.original_ops
    assert any(ins.op_type == "Mul" for ins in result.program.instrs)
    assert has_divergence(result.program, BASELINE)
    monkeypatch.undo()
    assert not has_divergence(result.program, BASELINE)


def _seed_638_shape() -> Program:
    """The fuzzer's first real find: a variable initializer that reads
    another variable's state after a placeholder was assigned into it.
    Traced functions pre-run initializers without feeds, so only the
    function cells error — and the fault is *dead code* for the fetch."""
    ph = np.array([0.5, -1.5], dtype=np.float32)
    ones = np.array([1.0, 1.0], dtype=np.float32)
    instrs = [
        Instr(op_type="Placeholder", value=ph,
              out_dtypes=("float32",), out_shapes=((2,),)),
        Instr(op_type="Const", value=ones,
              out_dtypes=("float32",), out_shapes=((2,),)),
        Instr(op_type="VariableV2", inputs=((1, 0),)),
        Instr(op_type="Assign", inputs=((0, 0),), attrs={"var": 2},
              control=("init:2",),
              out_dtypes=("float32",), out_shapes=((2,),)),
        Instr(op_type="AssignAdd", inputs=((1, 0),), attrs={"var": 2},
              control=("op:3",),
              out_dtypes=("float32",), out_shapes=((2,),)),
        Instr(op_type="VariableV2", inputs=((4, 0),)),
    ]
    return Program(instrs=instrs, fetches=[(1, 0)], seed=638)


def test_sweep_is_verified_when_fault_is_dead_for_the_fetches():
    # Regression: the shrinker once applied the dead-code sweep without
    # re-checking the oracle, so this program "shrank" to its one live
    # Const — which of course no longer failed anywhere.
    program = _seed_638_shape()
    report = run_program(program)
    assert not report.ok
    target = next(
        d.cell for d in report.divergences
        if d.cell.frontend == "function"
    )
    result = shrink(program, target)
    assert has_divergence(result.program, target), (
        "shrinker returned a program that does not reproduce"
    )
    kinds = [ins.op_type for ins in result.program.instrs]
    assert "Placeholder" in kinds and kinds.count("VariableV2") == 2


def test_shrink_returns_unchanged_when_nothing_diverges():
    program = _padded_mul_program()
    result = shrink(program, EAGER)
    assert result.rounds == 0
    assert result.ops == program.op_count()


def test_shrinker_is_deterministic():
    program = _padded_mul_program()
    with override_kernel("Mul", _buggy_eager_mul(get_kernel("Mul"))):
        first = shrink(program, EAGER)
        second = shrink(program, EAGER)
    assert [i.op_type for i in first.program.instrs] == [
        i.op_type for i in second.program.instrs
    ]
    assert first.program.fetches == second.program.fetches
