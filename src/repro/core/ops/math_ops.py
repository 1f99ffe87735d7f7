"""Mathematical ops: elementwise arithmetic, reductions, matrix products."""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro import dtypes
from repro.core.kernels.registry import Cost, ShapeFn, register_kernel
from repro.core.ops.common import (
    FLOATS,
    NUMERIC,
    OutputSpecs,
    any_symbolic,
    broadcast_static_shapes,
    elementwise_spec,
    make_symbolic,
    merged_shape,
    normalize_axis,
    runtime_shape,
    runtime_spec,
    same_as_input,
    to_tensor,
    uniform_dtype,
)
from repro.core.tensor import SymbolicValue, Tensor, TensorShape, value_nbytes
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
# shape functions: (inputs, attrs) -> one (dtype, shape) per output. Run by
# create_op when the op is built and re-run by the graph verifier.
# ---------------------------------------------------------------------------

def _binary_shape(op_type: str, out_dtype: Optional[dtypes.DType] = None) -> ShapeFn:
    def shape_fn(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
        dtype = uniform_dtype(inputs, op_type)
        shape = broadcast_static_shapes(inputs[0].shape, inputs[1].shape)
        return [(out_dtype or dtype, shape)]

    return shape_fn


def _matmul_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    at, bt = inputs
    dtype = uniform_dtype(inputs, "matmul")
    transpose_a = attrs.get("transpose_a", False)
    transpose_b = attrs.get("transpose_b", False)
    sa = at.shape
    sb = bt.shape
    rank_b = sb.rank
    if sa.rank not in (None, 2):
        raise InvalidArgumentError(f"matmul lhs must be rank 2, got {sa}")
    if rank_b not in (None, 1, 2):
        raise InvalidArgumentError(f"matmul rhs must be rank 1 or 2, got {sb}")
    if rank_b == 1 and transpose_b:
        raise InvalidArgumentError("cannot transpose a rank-1 rhs")
    m = None if sa.rank is None else sa[1 if transpose_a else 0]
    ka = None if sa.rank is None else sa[0 if transpose_a else 1]
    if rank_b == 1:
        kb = sb[0]
        out_shape = TensorShape([m])
    else:
        kb = None if rank_b is None else sb[1 if transpose_b else 0]
        n = None if rank_b is None else sb[0 if transpose_b else 1]
        out_shape = TensorShape([m, n]) if rank_b is not None else TensorShape(None)
    if ka is not None and kb is not None and ka != kb:
        raise InvalidArgumentError(
            f"matmul inner dimensions disagree: {ka} vs {kb}"
        )
    return [(dtype, out_shape)]


def _dot_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    dtype = uniform_dtype(inputs, "dot")
    for t in inputs:
        if t.shape.rank not in (None, 1):
            raise InvalidArgumentError(f"dot expects vectors, got {t.shape}")
    return [(dtype, TensorShape([]))]


def _add_n_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    shape = merged_shape(inputs)
    for t in inputs[1:]:
        if t.dtype != inputs[0].dtype:
            raise InvalidArgumentError("add_n requires uniform dtypes")
    return [(inputs[0].dtype, shape)]


def _reduce_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    axes = attrs["axis"]
    keepdims = attrs.get("keepdims", False)
    dims = x.shape.dims
    if axes is None:
        out_shape = TensorShape([] if not keepdims else [1] * len(dims or ()))
        if dims is None and keepdims:
            out_shape = TensorShape(None)
    elif dims is None:
        out_shape = TensorShape(None)
    else:
        norm = {normalize_axis(a, len(dims), "reduce") for a in axes}
        kept = [
            (1 if keepdims else None) if i in norm else d
            for i, d in enumerate(dims)
        ]
        if not keepdims:
            kept = [d for i, d in enumerate(kept) if i not in norm]
        out_shape = TensorShape(kept)
    return [(x.dtype, out_shape)]


# ---------------------------------------------------------------------------
# kernels, each registered with its OpDef (flags, shape function, and the
# generation contract the repro.fuzz catalog draws from)
# ---------------------------------------------------------------------------

def _elementwise_cost(values, out_spec: SymbolicValue, flops_per_element: float = 1.0) -> Cost:
    n = out_spec.size
    nbytes = sum(value_nbytes(v) for v in values) + out_spec.nbytes
    return Cost(flops=flops_per_element * n, mem_bytes=nbytes, kind="compute")


def _binary_kernel(np_fn, flops_per_element: float = 1.0):
    def kernel(op, inputs, ctx):
        out_spec = elementwise_spec(op, inputs)
        cost = _elementwise_cost(inputs, out_spec, flops_per_element)
        if any_symbolic(inputs):
            return [out_spec], cost
        a, b = (np.asarray(v) for v in inputs)
        out = np_fn(a, b).astype(op.outputs[0].dtype.np_dtype, copy=False)
        return [out], cost

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
        _op, pure=True, shape_fn=_binary_shape(_op), builder=_builder,
        arity=(2, 2), dtypes=_dtypes, shape_rule="elementwise_broadcast",
    )(_binary_kernel(_np_fn))


def _unary_kernel(np_fn, flops_per_element: float = 1.0):
    def kernel(op, inputs, ctx):
        (x,) = inputs
        out_spec = elementwise_spec(op, inputs)
        cost = _elementwise_cost(inputs, out_spec, flops_per_element)
        if isinstance(x, SymbolicValue):
            return [out_spec], cost
        out = np_fn(np.asarray(x)).astype(op.outputs[0].dtype.np_dtype, copy=False)
        return [out], cost

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
        _op, pure=True, shape_fn=same_as_input, builder=_builder,
        arity=(1, 1), dtypes=_dtypes, shape_rule="unary_same",
    )(_unary_kernel(_np_fn, flops_per_element=_flops))


@register_kernel("GreaterEqual", pure=True,
                 shape_fn=_binary_shape("GreaterEqual", dtypes.bool_),
                 builder="greater_equal", arity=(2, 2), dtypes=NUMERIC,
                 shape_rule="elementwise_broadcast")
def _greater_equal_kernel(op, inputs, ctx):
    out_spec = elementwise_spec(op, inputs)
    cost = _elementwise_cost(inputs, out_spec)
    if any_symbolic(inputs):
        return [out_spec], cost
    a, b = (np.asarray(v) for v in inputs)
    return [np.greater_equal(a, b)], cost


@register_kernel("MatMul", pure=True, shape_fn=_matmul_shape,
                 builder="matmul", arity=(2, 2), dtypes=FLOATS,
                 shape_rule="matmul")
def _matmul_kernel(op, inputs, ctx):
    a, b = inputs
    ta = op.get_attr("transpose_a", False)
    tb = op.get_attr("transpose_b", False)
    sa = runtime_shape(a)
    sb = runtime_shape(b)
    m, k = (sa[1], sa[0]) if ta else (sa[0], sa[1])
    if len(sb) == 1:
        kb, n = sb[0], 1
        out_shape: tuple[int, ...] = (m,)
    else:
        kb, n = (sb[1], sb[0]) if tb else (sb[0], sb[1])
        out_shape = (m, n)
    if k != kb:
        # Checked on the spec, so shape-only and concrete runs agree.
        raise InvalidArgumentError(
            f"MatMul operand shapes {sa} and {sb} (transpose_a={ta}, "
            f"transpose_b={tb}) disagree on the inner dimension: {k} vs {kb}",
            node_def=op.name,
        )
    dtype = runtime_spec(a).dtype
    # Complex multiply-add counts 4x real flops; the figures only use real.
    factor = 4.0 if dtype.is_complex else 1.0
    flops = factor * 2.0 * m * k * n
    nbytes = (m * k + k * n + m * n) * dtype.size
    cost = Cost(flops=flops, mem_bytes=nbytes, kind="compute")
    if any_symbolic(inputs):
        return [make_symbolic(out_shape, dtype)], cost
    am = np.asarray(a).T if ta else np.asarray(a)
    bm = np.asarray(b).T if tb else np.asarray(b)
    return [am @ bm], cost


@register_kernel("Dot", pure=True, shape_fn=_dot_shape, builder="dot",
                 arity=(2, 2), dtypes=FLOATS, shape_rule="dot")
def _dot_kernel(op, inputs, ctx):
    a, b = inputs
    sa, sb = runtime_shape(a), runtime_shape(b)
    if len(sa) != 1 or sa != sb:
        # Checked on the spec, so shape-only and concrete runs agree.
        raise InvalidArgumentError(
            f"Dot operand shapes {sa} and {sb} are not two vectors of one "
            f"length", node_def=op.name,
        )
    n = sa[0]
    dtype = runtime_spec(a).dtype
    factor = 4.0 if dtype.is_complex else 1.0
    cost = Cost(
        flops=factor * 2.0 * n,
        mem_bytes=2 * n * dtype.size,
        kind="compute",
    )
    if any_symbolic(inputs):
        return [make_symbolic((), dtype)], cost
    return [np.asarray(np.dot(np.asarray(a), np.asarray(b)))], cost


@register_kernel("AddN", pure=True, shape_fn=_add_n_shape, builder="add_n",
                 arity=(2, 4), dtypes=NUMERIC, shape_rule="same_shape_n")
def _add_n_kernel(op, inputs, ctx):
    out_spec = elementwise_spec(op, inputs)
    cost = Cost(
        flops=(len(inputs) - 1) * out_spec.size,
        mem_bytes=sum(value_nbytes(v) for v in inputs) + out_spec.nbytes,
        kind="compute",
    )
    if any_symbolic(inputs):
        return [out_spec], cost
    total = np.zeros(out_spec.shape, dtype=out_spec.dtype.np_dtype)
    for v in inputs:
        total = total + np.asarray(v)
    return [total], cost


def _reduce_kernel(np_fn, extra_flops: float = 1.0):
    def kernel(op, inputs, ctx):
        (x,) = inputs
        axes = op.get_attr("axis")
        keepdims = op.get_attr("keepdims", False)
        spec = runtime_spec(x)
        cost = Cost(
            flops=extra_flops * spec.size,
            mem_bytes=spec.nbytes,
            kind="compute",
        )
        if isinstance(x, SymbolicValue):
            shape = list(spec.shape)
            rank = len(shape)
            norm = set(range(rank)) if axes is None else {a % rank for a in axes}
            dims = [1 if i in norm else d for i, d in enumerate(shape)]
            if not keepdims:
                dims = [d for i, d in enumerate(dims) if i not in norm]
            return [make_symbolic(dims, spec.dtype)], cost
        out = np_fn(np.asarray(x), axis=axes, keepdims=keepdims)
        return [np.asarray(out, dtype=op.outputs[0].dtype.np_dtype)], cost

    return kernel


for _op, _builder, _np_fn, _dtypes in (
    ("Sum", "reduce_sum", np.sum, NUMERIC),
    ("Mean", "reduce_mean", np.mean, FLOATS),
    ("Max", "reduce_max", np.max, NUMERIC),
):
    register_kernel(
        _op, pure=True, shape_fn=_reduce_shape, builder=_builder,
        arity=(1, 1), dtypes=_dtypes, shape_rule="reduce",
    )(_reduce_kernel(_np_fn))
