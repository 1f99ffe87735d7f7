"""Eager ↔ graph kernel parity: one kernel library, two frontends.

Both execution modes dispatch the same registered kernels, so for every
op type both modes support, eager execution and ``Session.run`` must
produce *identical* values — and every concrete value must fit the
static spec the op's shape function produced (NumPy is the reference).

``test_op_registration`` is the one sweep over the op table
(``repro.core.kernels.registry``): it tells a new op what it forgot —
shape function, cost, builder, parity case, fuzz contract or exclusion.
"""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import repro as tf
from repro import eager
from repro.core import ops
from repro.core.kernels.registry import (
    op_def,
    register_kernel,
    registered_op_types,
)
from repro.core.tensor import TensorShape
from repro.errors import UnimplementedError
from repro.fuzz.catalog import EXCLUDED_OPS, catalog
from repro.fuzz.generator import _FAMILIES

SEED = 11

_RNG = np.random.default_rng(4)
_V4 = _RNG.normal(size=4)
_W4 = _RNG.normal(size=4)
_M23 = _RNG.normal(size=(2, 3))
_M33 = _RNG.normal(size=(3, 3))
_C8 = _RNG.normal(size=8) + 1j * _RNG.normal(size=8)

# (covered op types, builder name, args, kwargs)
CASES = [
    (("Add",), "add", (_V4, _W4), {}),
    (("Sub",), "subtract", (_V4, _W4), {}),
    (("Mul",), "multiply", (_V4, _W4), {}),
    (("Div",), "divide", (_V4, _W4), {}),
    (("Maximum",), "maximum", (_V4, _W4), {}),
    (("Minimum",), "minimum", (_V4, _W4), {}),
    (("Neg",), "negative", (_V4,), {}),
    (("Square",), "square", (_V4,), {}),
    (("Sqrt",), "sqrt", (np.abs(_V4),), {}),
    (("Exp",), "exp", (_V4,), {}),
    (("Sigmoid",), "sigmoid", (_V4,), {}),
    (("GreaterEqual",), "greater_equal", (_V4, _W4), {}),
    (("MatMul",), "matmul", (_M23, _M33), {}),
    (("MatMul",), "matmul", (_M33, _M33), {"transpose_b": True}),
    (("Dot",), "dot", (_V4, _W4), {}),
    (("AddN",), "add_n", ([_V4, _W4, _V4],), {}),
    (("Sum",), "reduce_sum", (_M23,), {"axis": 0}),
    (("Sum",), "reduce_sum", (_M23,), {}),
    (("Mean",), "reduce_mean", (_M23,), {"axis": 1, "keepdims": True}),
    (("Max",), "reduce_max", (_M23,), {}),
    (("Cast",), "cast", (_V4, tf.float32), {}),
    (("Identity", "Const"), "identity", (_V4,), {}),
    (("Reshape",), "reshape", (_M23, [3, 2]), {}),
    (("Transpose",), "transpose", (_M23,), {}),
    (("Concat",), "concat", ([_V4, _W4],), {"axis": 0}),
    (("Split",), "split", (_C8.real, 2), {}),
    (("Stack",), "stack", ([_V4, _W4],), {"axis": 1}),
    (("Squeeze",), "squeeze", (_M23[None],), {"axis": 0}),
    (("ExpandDims",), "expand_dims", (_V4, 1), {}),
    (("Fill",), "fill", ([2, 3], 2.5), {"dtype": tf.float64}),
    (("Fill",), "zeros", ([4],), {}),
    (("Fill",), "ones", ([2, 2],), {"dtype": tf.float64}),
    (("ZerosLike",), "zeros_like", (_M23,), {}),
    (("Slice",), "slice_", (_M23, [0, 1], [2, 2]), {}),
    (("FFT",), "fft", (_C8,), {}),
    (("IFFT",), "ifft", (_C8,), {}),
    (("CollectiveAllReduce",), "all_reduce", ([_V4, _W4],), {}),
    (("CollectiveReduceScatter",), "reduce_scatter", ([_V4, _W4],), {}),
    (("CollectiveAllGather",), "all_gather", ([_V4, _W4],), {}),
    (("CollectiveBroadcast",), "broadcast", (_V4,),
     {"devices": ("/cpu:0", "/cpu:0", "/cpu:0")}),
    (("NoOp",), "no_op", (), {}),
    (("RandomUniform",), "random_uniform", ([6],),
     {"minval": -1.0, "maxval": 1.0, "dtype": tf.float64}),
    (("RandomNormal",), "random_normal", ([6],), {"dtype": tf.float64}),
]

# Ops that only make sense under a Session: the simulated runtime owns
# queues, datasets and the parallel filesystem. The sweep holds the
# registry's graph_only flag to this list.
GRAPH_ONLY = {
    "FIFOQueue", "QueueEnqueue", "QueueDequeue", "QueueSize", "QueueClose",
    "IteratorV2", "IteratorGetNext", "ReadTile", "WriteTile",
}

# Stateful ops with mode-specific APIs, covered by dedicated tests:
# variables (tests/core/test_eager.py eager handles vs test_session.py
# graph Variables) and the feed mechanism (Placeholder IS the eager/
# traced argument transport, exercised by every parity case above).
COVERED_ELSEWHERE = {
    "VariableV2", "Assign", "AssignAdd", "AssignSub", "Placeholder",
}


def _wrap_graph_arg(value, graph):
    if isinstance(value, np.ndarray):
        return tf.constant(value.copy(), graph=graph)
    if isinstance(value, list) and value and isinstance(value[0], np.ndarray):
        return [tf.constant(v.copy(), graph=graph) for v in value]
    return value


def _graph_eval(builder_name, args, kwargs):
    g = tf.Graph(seed=SEED)
    with g.as_default():
        built = getattr(tf, builder_name)(
            *[_wrap_graph_arg(a, g) for a in args], **kwargs
        )
    fetch = list(built) if isinstance(built, (list, tuple)) else built
    with tf.Session(graph=g) as sess:
        values = sess.run(fetch)
    # NumPy (through the kernels) is the reference the static specs —
    # what each op's shape function derived at build time — must fit.
    fetched = zip(fetch, values) if isinstance(fetch, list) else [(fetch, values)]
    for tensor, value in fetched:
        if isinstance(tensor, tf.Tensor):
            value = np.asarray(value)
            assert value.dtype == tensor.dtype.np_dtype, tensor.name
            assert tensor.shape.is_compatible_with(TensorShape(value.shape)), (
                f"{tensor.name}: static {tensor.shape}, value {value.shape}"
            )
    return values


@pytest.mark.parametrize(
    "builder_name,args,kwargs",
    [case[1:] for case in CASES],
    ids=[f"{c[1]}:{'+'.join(c[0])}" for c in CASES],
)
def test_eager_matches_graph(builder_name, args, kwargs):
    ctx = eager.EagerContext(seed=SEED)
    eager_out = getattr(ctx, builder_name)(*args, **kwargs)
    graph_out = _graph_eval(builder_name, args, kwargs)
    if eager_out is None:
        assert graph_out is None
        return
    if isinstance(eager_out, (list, tuple)):
        assert len(eager_out) == len(graph_out)
        for e, g in zip(eager_out, graph_out):
            np.testing.assert_array_equal(np.asarray(e), np.asarray(g))
    else:
        np.testing.assert_array_equal(np.asarray(eager_out), np.asarray(graph_out))


def test_graph_only_ops_rejected_eagerly():
    ctx = eager.EagerContext()
    for op_type in sorted(GRAPH_ONLY):
        with pytest.raises(UnimplementedError):
            ctx.execute(op_type)


@pytest.mark.parametrize("op_type", registered_op_types())
def test_op_registration(op_type):
    """One record per op type, and nothing about the op left unsaid."""
    definition = op_def(op_type)
    assert definition.op_type == op_type
    assert callable(definition.kernel)
    assert callable(definition.cost), "register the op's cost"
    assert definition.shape_fn is not None or definition.kernel_spec, (
        "register a shape_fn, or mark the kernel as the op's run-time spec "
        "authority (kernel_spec=True)"
    )
    assert definition.builder in ops.__all__
    assert definition.graph_only == (op_type in GRAPH_ONLY)
    assert (
        op_type in GRAPH_ONLY
        or op_type in COVERED_ELSEWHERE
        or any(op_type in case[0] for case in CASES)
    ), "add a parity case, or a skip-list entry saying what covers it"
    drawable = op_type in catalog()
    assert drawable or len(EXCLUDED_OPS.get(op_type, "")) > 10, (
        "register arity/dtypes/shape_rule so the fuzzer can draw the op, or "
        "add it to repro.fuzz.catalog.EXCLUDED_OPS with a reason"
    )
    if drawable:
        # Graph-only kernels cannot run eagerly, so cannot be compared.
        assert not definition.graph_only
        lo, hi = definition.arity
        assert 0 <= lo <= hi
        assert definition.dtypes
        assert definition.shape_rule in _FAMILIES
    if definition.inline:
        assert not definition.graph_only
        assert not inspect.isgeneratorfunction(definition.kernel)


def test_inline_set_unchanged():
    # The executor dispatches these without holding the device: growing
    # the set silently would change device FIFO behaviour for the new op.
    assert {t for t in registered_op_types() if op_def(t).inline} == {
        "Const", "ExpandDims", "Identity", "NoOp", "Placeholder",
        "Reshape", "Squeeze", "VariableV2",
    }


def test_kernel_spec_list_is_the_documented_one():
    """ARCHITECTURE §1.1 names every op whose kernel decides its specs."""
    text = (Path(__file__).parents[2] / "docs" / "ARCHITECTURE.md").read_text(
        encoding="utf-8")
    paragraph = text.split("The `kernel_spec` ops:", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"`(\w+)`", paragraph)
    assert sorted(documented) == [
        t for t in registered_op_types() if op_def(t).kernel_spec]
    assert len(documented) == len(set(documented))


def test_duplicate_registration_rejected():
    with pytest.raises(UnimplementedError):
        register_kernel("Add", builder="add")(lambda op, inputs, ctx: None)


def test_stateful_variable_parity():
    """Same assign/read semantics across the two variable APIs."""
    ctx = eager.EagerContext()
    handle = ctx.variable(np.zeros(3), name="acc")
    ctx.assign_add(handle, np.ones(3))
    ctx.assign_add(handle, np.full(3, 2.0))
    eager_value = ctx.read(handle)

    g = tf.Graph()
    with g.as_default():
        v = tf.Variable(np.zeros(3), name="acc")
        first = tf.assign_add(v, tf.constant(np.ones(3)))
        with g.control_dependencies([first.op]):
            second = tf.assign_add(v, tf.constant(np.full(3, 2.0)))
    with tf.Session(graph=g) as sess:
        sess.run(v.initializer)
        graph_value = sess.run(second)
    np.testing.assert_array_equal(eager_value, graph_value)
