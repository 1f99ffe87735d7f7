"""Generator: determinism, validity, feature coverage, and codegen."""

import hashlib

import numpy as np
import pytest

import repro as tf
import repro.fuzz.generator as generator_module
from repro.fuzz.generator import (
    GeneratorOptions,
    Instr,
    Program,
    generate,
)
from repro.fuzz.harness import BASELINE, run_cell

SEEDS = range(12)


def _signature(program):
    return [
        (ins.op_type, ins.inputs, sorted(ins.attrs.items()),
         None if ins.value is None else ins.value.tobytes(),
         ins.control, ins.out_dtypes, ins.out_shapes)
        for ins in program.instrs
    ]


def test_same_seed_same_program():
    for seed in SEEDS:
        a, b = generate(seed), generate(seed)
        assert _signature(a) == _signature(b)
        assert a.fetches == b.fetches
        assert a.world == b.world


def test_different_seeds_differ():
    signatures = {str(_signature(generate(seed))) for seed in range(20)}
    assert len(signatures) > 15  # near-certain uniqueness


def test_generated_programs_run_clean_on_the_baseline():
    for seed in SEEDS:
        program = generate(seed)
        run = run_cell(program, BASELINE)
        assert run.ok, (
            f"seed {seed} generated an invalid program: {run.error}"
        )
        assert run.values is not None and len(run.values) == len(
            program.fetches
        )


def test_feature_coverage_across_a_seed_range():
    ops = set()
    worlds = set()
    gradients = 0
    for seed in range(40):
        program = generate(seed)
        ops.update(ins.op_type for ins in program.instrs)
        worlds.add(program.world)
        gradients += any(
            ins.op_type == "Gradients" for ins in program.instrs
        )
    # The generator must actually exercise the interesting subsystems.
    assert "VariableV2" in ops
    assert any(op.startswith("Collective") for op in ops)
    assert gradients >= 5
    assert any(w >= 2 for w in worlds)


def test_op_budget_is_respected_and_sizes_bounded():
    options = GeneratorOptions(max_ops=8)
    for seed in SEEDS:
        program = generate(seed, options)
        # Seed pool + budget + gradient tail: generously bounded.
        assert program.op_count() <= 8 + 10
        for ins in program.instrs:
            for shape in ins.out_shapes:
                assert int(np.prod(shape, dtype=np.int64)) <= 4096


def test_options_disable_features():
    options = GeneratorOptions(collectives=False, gradients=False,
                               variables=False)
    for seed in SEEDS:
        program = generate(seed, options)
        assert program.world == 0
        for ins in program.instrs:
            assert not ins.op_type.startswith("Collective")
            assert ins.op_type != "Gradients"
            assert ins.op_type != "VariableV2"


def test_variable_updates_are_ordered_by_control_deps():
    for seed in range(30):
        program = generate(seed)
        for index, ins in enumerate(program.instrs):
            if ins.op_type in ("Assign", "AssignAdd", "AssignSub"):
                # Every update is ordered after the initializer or the
                # previous update of the same variable.
                assert ins.control, (index, ins)


def test_to_python_emits_compilable_source():
    for seed in SEEDS:
        program = generate(seed)
        script = program.to_python()
        compile(script, f"<fuzz-seed-{seed}>", "exec")
        assert "def body(" in script
        assert "run_script_body" in script


def test_emitted_script_body_rebuilds_the_program(tmp_path):
    # End to end: write the script, execute it in-process; a healthy
    # engine must satisfy the script's byte-identity assertions.
    program = generate(3)
    script = program.to_python()
    path = tmp_path / "repro_seed_3.py"
    path.write_text(script, encoding="utf-8")
    namespace = {"__name__": "__main__", "__file__": str(path)}
    exec(compile(script, str(path), "exec"), namespace)


def test_materialize_under_explicit_graph():
    program = generate(1)
    g = tf.Graph()
    with g.as_default():
        built = program.materialize()
    assert len(built.fetch_tensors) == len(program.fetches)
    for (src, out), tensor in zip(program.fetches, built.fetch_tensors):
        expected_dtype = program.instrs[src].out_dtypes[out]
        assert tensor.dtype.name == expected_dtype


def test_building_a_program_asks_the_op_table_not_the_catalog(monkeypatch):
    # catalog() filters the whole op table on each call; a program that is
    # already generated needs one field of one record per instruction.
    programs = [generate(seed) for seed in SEEDS]

    def rederived():
        raise AssertionError("catalog() derived while building a program")

    monkeypatch.setattr(generator_module, "catalog", rederived)
    for program in programs:
        with tf.Graph().as_default():
            built = program.materialize()
        assert len(built.fetch_tensors) == len(program.fetches)
        assert "def body(" in program.to_python()


def test_emitted_source_is_the_parents_byte_for_byte():
    # Seeds 0..50 through to_python(), digest recorded at PR 23's parent.
    digest = hashlib.sha256()
    for seed in range(51):
        digest.update(generate(seed).to_python().encode())
    assert digest.hexdigest() == (
        "7c4ffac4c42d71d015c70cf8920afb21e6b176a14aec9d54a0c6891606353099")


def test_clone_is_deep_enough_for_editing():
    program = generate(0)
    twin = program.clone()
    twin.instrs[0] = Instr(op_type="Const", value=np.float32(0))
    twin.fetches.append((0, 0))
    assert _signature(program) != _signature(twin) or (
        len(program.fetches) != len(twin.fetches)
    )


def test_live_set_and_deps():
    program = Program(
        instrs=[
            Instr(op_type="Const", value=np.float32(1.0),
                  out_dtypes=("float32",), out_shapes=((),)),
            Instr(op_type="Const", value=np.float32(2.0),
                  out_dtypes=("float32",), out_shapes=((),)),
            Instr(op_type="Add", inputs=((0, 0), (0, 0)),
                  out_dtypes=("float32",), out_shapes=((),)),
        ],
        fetches=[(2, 0)],
    )
    assert program.deps_of(2) == {0}
    assert program.live_set() == {0, 2}  # instr 1 is dead


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_gradient_tails_fetch_float_gradients(seed):
    program = generate(seed, GeneratorOptions(gradients=True))
    for index, ins in enumerate(program.instrs):
        if ins.op_type != "Gradients":
            continue
        for out, dtype in enumerate(ins.out_dtypes):
            assert dtype in ("float32", "float64")
            assert (index, out) in program.fetches


def test_variable_initializers_are_never_feed_tainted():
    # Regression (seed 638 at --ops 24 --max-world 8): an update output
    # downstream of Assign(placeholder) was marked feed-free and chosen
    # as another variable's initializer; the tracing frontend pre-runs
    # initializers without feeds and blew up. The update samplers now
    # propagate the variable *state's* taint, so no VariableV2 init may
    # reach a Placeholder through data, control, or var edges.
    options = GeneratorOptions(max_ops=24, max_world=8)
    for seed in range(300):
        program = generate(seed, options)
        reach: list[set[int]] = []
        for index, ins in enumerate(program.instrs):
            mine: set[int] = set()
            for dep in program.deps_of(index):
                mine |= reach[dep]
            if ins.op_type == "Placeholder":
                mine.add(index)
            reach.append(mine)
        for index, ins in enumerate(program.instrs):
            if ins.op_type == "VariableV2" and ins.inputs:
                src = ins.inputs[0][0]
                assert not reach[src], (
                    f"seed {seed}: variable at {index} initialized from "
                    f"placeholder-tainted instr {src}"
                )
