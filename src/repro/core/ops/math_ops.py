"""Mathematical ops: elementwise arithmetic, reductions, matrix products."""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro import dtypes
from repro.core.kernels.registry import (
    Cost,
    ShapeFn,
    elementwise_cost,
    reduction_cost,
    register_kernel,
    total_nbytes,
)
from repro.core.ops.common import (
    FLOATS,
    NUMERIC,
    OutputSpecs,
    broadcast_dims,
    merge_dims,
    merged_dims,
    normalize_axis,
    same_as_input,
    to_tensor,
    uniform_dtype,
)
from repro.core.tensor import Tensor, dims_of
from repro.errors import InvalidArgumentError

__all__ = [
    "add",
    "subtract",
    "multiply",
    "divide",
    "negative",
    "square",
    "sqrt",
    "exp",
    "sigmoid",
    "maximum",
    "minimum",
    "greater_equal",
    "matmul",
    "dot",
    "add_n",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "cast",
]

# Re-export cast so ``math_ops.cast`` works like in TF.
from repro.core.ops.array_ops import cast  # noqa: E402


# ---------------------------------------------------------------------------
# builders: coerce arguments, then create_op (the shape function registered
# for the op type derives and validates the output specs)
# ---------------------------------------------------------------------------

def _binary(op_type: str, x, y, name: str) -> Tensor:
    xt = to_tensor(x)
    yt = to_tensor(y, graph=xt.graph)
    if xt.dtype != yt.dtype:
        # Promote literals/other dtypes NumPy-style; TF is stricter, but the
        # looser rule keeps the HPC apps readable.
        target = dtypes.result_dtype(xt.dtype, yt.dtype)
        if xt.dtype != target:
            xt = cast(xt, target)
        if yt.dtype != target:
            yt = cast(yt, target)
    return xt.graph.create_op(op_type, inputs=[xt, yt], name=name).outputs[0]


def add(x, y, name: str = "Add") -> Tensor:
    return _binary("Add", x, y, name)


def subtract(x, y, name: str = "Sub") -> Tensor:
    return _binary("Sub", x, y, name)


def multiply(x, y, name: str = "Mul") -> Tensor:
    return _binary("Mul", x, y, name)


def divide(x, y, name: str = "Div") -> Tensor:
    return _binary("Div", x, y, name)


def maximum(x, y, name: str = "Maximum") -> Tensor:
    return _binary("Maximum", x, y, name)


def minimum(x, y, name: str = "Minimum") -> Tensor:
    return _binary("Minimum", x, y, name)


def greater_equal(x, y, name: str = "GreaterEqual") -> Tensor:
    """Elementwise ``x >= y`` as a bool tensor (NumPy broadcasting)."""
    return _binary("GreaterEqual", x, y, name)


def _unary(op_type: str, x, name: str) -> Tensor:
    xt = to_tensor(x)
    return xt.graph.create_op(op_type, inputs=[xt], name=name).outputs[0]


def negative(x, name: str = "Neg") -> Tensor:
    return _unary("Neg", x, name)


def square(x, name: str = "Square") -> Tensor:
    return _unary("Square", x, name)


def sqrt(x, name: str = "Sqrt") -> Tensor:
    return _unary("Sqrt", x, name)


def exp(x, name: str = "Exp") -> Tensor:
    return _unary("Exp", x, name)


def sigmoid(x, name: str = "Sigmoid") -> Tensor:
    """Elementwise logistic function ``1 / (1 + exp(-x))``."""
    return _unary("Sigmoid", x, name)


def matmul(a, b, transpose_a: bool = False, transpose_b: bool = False,
           name: str = "MatMul") -> Tensor:
    """Matrix product of rank-2 tensors (or matrix×vector for rank-1 b)."""
    at = to_tensor(a)
    bt = to_tensor(b, graph=at.graph)
    op = at.graph.create_op(
        "MatMul",
        inputs=[at, bt],
        attrs={"transpose_a": transpose_a, "transpose_b": transpose_b},
        name=name,
    )
    return op.outputs[0]


def dot(x, y, name: str = "Dot") -> Tensor:
    """Inner product of two rank-1 tensors, returning a scalar."""
    xt = to_tensor(x)
    yt = to_tensor(y, graph=xt.graph)
    return xt.graph.create_op("Dot", inputs=[xt, yt], name=name).outputs[0]


def add_n(values: Sequence[Any], name: str = "AddN") -> Tensor:
    tensors = [to_tensor(v) for v in values]
    if not tensors:
        raise InvalidArgumentError("add_n of an empty list")
    op = tensors[0].graph.create_op("AddN", inputs=tensors, name=name)
    return op.outputs[0]


def _reduce(op_type: str, x, axis, keepdims: bool, name: str) -> Tensor:
    xt = to_tensor(x)
    if axis is None:
        axes: Optional[tuple[int, ...]] = None
    else:
        if isinstance(axis, int):
            axis = (axis,)
        axes = tuple(int(a) for a in axis)
    op = xt.graph.create_op(
        op_type,
        inputs=[xt],
        attrs={"axis": axes, "keepdims": keepdims},
        name=name,
    )
    return op.outputs[0]


def reduce_sum(x, axis=None, keepdims: bool = False, name: str = "Sum") -> Tensor:
    return _reduce("Sum", x, axis, keepdims, name)


def reduce_mean(x, axis=None, keepdims: bool = False, name: str = "Mean") -> Tensor:
    return _reduce("Mean", x, axis, keepdims, name)


def reduce_max(x, axis=None, keepdims: bool = False, name: str = "Max") -> Tensor:
    return _reduce("Max", x, axis, keepdims, name)


# ---------------------------------------------------------------------------
# shape functions: (specs, attrs) -> one (dtype, dims) per output. Run by
# create_op on the input tensors, by the graph verifier, and by the
# dispatcher on the run-time values' specs.
# ---------------------------------------------------------------------------

def _binary_shape(op_type: str, out_dtype: Optional[dtypes.DType] = None) -> ShapeFn:
    def shape_fn(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
        dtype = uniform_dtype(inputs, op_type)
        dims = broadcast_dims(dims_of(inputs[0]), dims_of(inputs[1]))
        return [(out_dtype or dtype, dims)]

    return shape_fn


def _matmul_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    dtype = uniform_dtype(inputs, "matmul")
    transpose_a = attrs.get("transpose_a", False)
    transpose_b = attrs.get("transpose_b", False)
    sa, sb = dims_of(inputs[0]), dims_of(inputs[1])
    if sa is not None and len(sa) != 2:
        raise InvalidArgumentError(f"matmul lhs must be rank 2, got rank {len(sa)}")
    if sb is not None and len(sb) not in (1, 2):
        raise InvalidArgumentError(
            f"matmul rhs must be rank 1 or 2, got rank {len(sb)}"
        )
    m = ka = None
    if sa is not None:
        m, ka = (sa[1], sa[0]) if transpose_a else sa
    if sb is None:
        kb, dims = None, None
    elif len(sb) == 1:
        if transpose_b:
            raise InvalidArgumentError("cannot transpose a rank-1 rhs")
        kb, dims = sb[0], (m,)
    else:
        kb, n = (sb[1], sb[0]) if transpose_b else sb
        dims = (m, n)
    if ka is not None and kb is not None and ka != kb:
        raise InvalidArgumentError(
            f"matmul inner dimensions disagree: {ka} vs {kb}"
        )
    return [(dtype, dims)]


def _dot_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    dtype = uniform_dtype(inputs, "dot")
    for t in inputs:
        if dims_of(t) is not None and len(dims_of(t)) != 1:
            raise InvalidArgumentError(
                f"dot expects vectors, got rank {len(dims_of(t))}"
            )
    merge_dims(dims_of(inputs[0]), dims_of(inputs[1]))
    return [(dtype, ())]


def _add_n_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    dims = merged_dims(inputs)
    for t in inputs[1:]:
        if t.dtype != inputs[0].dtype:
            raise InvalidArgumentError("add_n requires uniform dtypes")
    return [(inputs[0].dtype, dims)]


def _reduce_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    axes = attrs["axis"]
    keepdims = attrs.get("keepdims", False)
    dims = dims_of(x)
    if dims is None:
        return [(x.dtype, None if keepdims or axes is not None else ())]
    norm = (set(range(len(dims))) if axes is None
            else {normalize_axis(a, len(dims), "reduce") for a in axes})
    if keepdims:
        return [(x.dtype, tuple(1 if i in norm else d for i, d in enumerate(dims)))]
    return [(x.dtype, tuple(d for i, d in enumerate(dims) if i not in norm))]


# ---------------------------------------------------------------------------
# costs beyond the shared shapes of the registry
# ---------------------------------------------------------------------------

def _matmul_cost(in_specs, out_specs, attrs) -> Cost:
    sa, sb = in_specs[0].shape, in_specs[1].shape
    m, k = (sa[1], sa[0]) if attrs.get("transpose_a", False) else sa
    if len(sb) == 1:
        n = 1
    else:
        n = sb[0] if attrs.get("transpose_b", False) else sb[1]
    dtype = in_specs[0].dtype
    # Complex multiply-add counts 4x real flops; the figures only use real.
    factor = 4.0 if dtype.is_complex else 1.0
    return Cost(flops=factor * 2.0 * m * k * n,
                mem_bytes=(m * k + k * n + m * n) * dtype.size, kind="compute")


def _dot_cost(in_specs, out_specs, attrs) -> Cost:
    n = in_specs[0].shape[0]
    dtype = in_specs[0].dtype
    factor = 4.0 if dtype.is_complex else 1.0
    return Cost(flops=factor * 2.0 * n, mem_bytes=2 * n * dtype.size,
                kind="compute")


def _add_n_cost(in_specs, out_specs, attrs) -> Cost:
    (out,) = out_specs
    return Cost(flops=(len(in_specs) - 1) * out.size,
                mem_bytes=total_nbytes(in_specs) + out.nbytes,
                kind="compute")


# ---------------------------------------------------------------------------
# kernels (values only), each registered with its OpDef: flags, shape
# function, cost, and the generation contract the repro.fuzz catalog draws
# from
# ---------------------------------------------------------------------------

def _binary_kernel(np_fn):
    def kernel(op, inputs, ctx):
        a, b = (np.asarray(v) for v in inputs)
        return [np_fn(a, b).astype(op.outputs[0].dtype.np_dtype, copy=False)]

    return kernel


for _op, _builder, _np_fn, _dtypes in (
    ("Add", "add", np.add, NUMERIC),
    ("Sub", "subtract", np.subtract, NUMERIC),
    ("Mul", "multiply", np.multiply, NUMERIC),
    ("Div", "divide", np.divide, FLOATS),
    ("Maximum", "maximum", np.maximum, NUMERIC),
    ("Minimum", "minimum", np.minimum, NUMERIC),
):
    register_kernel(
        _op, pure=True, shape_fn=_binary_shape(_op), cost=elementwise_cost(),
        builder=_builder, arity=(2, 2), dtypes=_dtypes,
        shape_rule="elementwise_broadcast",
    )(_binary_kernel(_np_fn))


def _unary_kernel(np_fn):
    def kernel(op, inputs, ctx):
        out = np_fn(np.asarray(inputs[0]))
        return [out.astype(op.outputs[0].dtype.np_dtype, copy=False)]

    return kernel


def _sigmoid_np(x):
    return 1.0 / (1.0 + np.exp(-x))


for _op, _builder, _np_fn, _flops, _dtypes in (
    ("Neg", "negative", np.negative, 1.0, NUMERIC),
    ("Square", "square", np.square, 1.0, NUMERIC),
    ("Sqrt", "sqrt", np.sqrt, 4.0, FLOATS),
    ("Exp", "exp", np.exp, 8.0, FLOATS),
    ("Sigmoid", "sigmoid", _sigmoid_np, 10.0, FLOATS),
):
    register_kernel(
        _op, pure=True, shape_fn=same_as_input, cost=elementwise_cost(_flops),
        builder=_builder, arity=(1, 1), dtypes=_dtypes, shape_rule="unary_same",
    )(_unary_kernel(_np_fn))


@register_kernel("GreaterEqual", pure=True,
                 shape_fn=_binary_shape("GreaterEqual", dtypes.bool_),
                 cost=elementwise_cost(), builder="greater_equal",
                 arity=(2, 2), dtypes=NUMERIC,
                 shape_rule="elementwise_broadcast")
def _greater_equal_kernel(op, inputs, ctx):
    a, b = (np.asarray(v) for v in inputs)
    return [np.greater_equal(a, b)]


@register_kernel("MatMul", pure=True, shape_fn=_matmul_shape,
                 cost=_matmul_cost, builder="matmul", arity=(2, 2),
                 dtypes=FLOATS, shape_rule="matmul")
def _matmul_kernel(op, inputs, ctx):
    a, b = (np.asarray(v) for v in inputs)
    am = a.T if op.get_attr("transpose_a", False) else a
    bm = b.T if op.get_attr("transpose_b", False) else b
    return [am @ bm]


@register_kernel("Dot", pure=True, shape_fn=_dot_shape, cost=_dot_cost,
                 builder="dot", arity=(2, 2), dtypes=FLOATS, shape_rule="dot")
def _dot_kernel(op, inputs, ctx):
    a, b = (np.asarray(v) for v in inputs)
    return [np.asarray(np.dot(a, b))]


@register_kernel("AddN", pure=True, shape_fn=_add_n_shape, cost=_add_n_cost,
                 builder="add_n", arity=(2, 4), dtypes=NUMERIC,
                 shape_rule="same_shape_n")
def _add_n_kernel(op, inputs, ctx):
    total = np.zeros(np.shape(inputs[0]), dtype=op.outputs[0].dtype.np_dtype)
    for v in inputs:
        total = total + np.asarray(v)
    return [total]


def _reduce_kernel(np_fn):
    def kernel(op, inputs, ctx):
        out = np_fn(np.asarray(inputs[0]), axis=op.get_attr("axis"),
                    keepdims=op.get_attr("keepdims", False))
        return [np.asarray(out, dtype=op.outputs[0].dtype.np_dtype)]

    return kernel


for _op, _builder, _np_fn, _dtypes in (
    ("Sum", "reduce_sum", np.sum, NUMERIC),
    ("Mean", "reduce_mean", np.mean, FLOATS),
    ("Max", "reduce_max", np.max, NUMERIC),
):
    register_kernel(
        _op, pure=True, shape_fn=_reduce_shape, cost=reduction_cost,
        builder=_builder, arity=(1, 1), dtypes=_dtypes, shape_rule="reduce",
    )(_reduce_kernel(_np_fn))
