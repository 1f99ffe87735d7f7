"""Eager ↔ graph kernel parity: one kernel library, two frontends.

Both execution modes dispatch the same registered kernels, so for every
op type both modes support, eager execution and ``Session.run`` must
produce *identical* values. The sweep is registry-driven: every
registered op type must either appear in a parity case, in the
graph-only skip-list (validated against the registry's ``graph_only``
metadata), or in the stateful set covered by dedicated tests — so a new
kernel cannot land without declaring its parity story.
"""

import inspect

import numpy as np
import pytest

import repro as tf
from repro import eager
from repro.core.kernels import registry
from repro.core.kernels.registry import is_graph_only, registered_op_types
from repro.errors import UnimplementedError

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
# queues, datasets and the parallel filesystem. Validated against the
# registry's graph_only metadata below.
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
        return sess.run(fetch)


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


def test_skip_list_matches_registry_metadata():
    assert GRAPH_ONLY == {
        op for op in registered_op_types() if is_graph_only(op)
    }


def test_graph_only_ops_rejected_eagerly():
    ctx = eager.EagerContext()
    for op_type in sorted(GRAPH_ONLY):
        with pytest.raises(UnimplementedError):
            ctx.execute(op_type)


def test_registry_fully_covered():
    """Every registered kernel has a declared parity story."""
    covered = set()
    for op_types, _, _, _ in CASES:
        covered.update(op_types)
    uncovered = set(registered_op_types()) - covered - GRAPH_ONLY - COVERED_ELSEWHERE
    assert not uncovered, (
        f"Ops without a parity case or skip-list entry: {sorted(uncovered)}"
    )


class TestInlineOpsRegistryView:
    """The executor's inline dispatch asks ``registry.is_inline`` directly."""

    def test_view_agrees_with_registry_for_every_op(self):
        inline = registry.inline_op_types()
        assert inline <= set(registered_op_types())
        for op_type in registered_op_types():
            assert registry.is_inline(op_type) == (op_type in inline), op_type

    def test_historic_inline_set_unchanged(self):
        # The registry flags must reproduce the executor's original
        # hard-coded zero-duration set exactly — growing it silently
        # would change device FIFO behaviour for the new op.
        assert registry.inline_op_types() == frozenset({
            "Const", "ExpandDims", "Identity", "NoOp", "Placeholder",
            "Reshape", "Squeeze", "VariableV2",
        })

    def test_non_strings_never_match(self):
        assert not registry.is_inline(None)
        assert not registry.is_inline(42)

    def test_inline_ops_have_plain_zero_cost_kernels(self):
        for op_type in registry.inline_op_types():
            assert registry.has_kernel(op_type), op_type
            assert not registry.is_graph_only(op_type), op_type
            kernel = registry.get_kernel(op_type)
            assert not inspect.isgeneratorfunction(kernel), op_type


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
