"""Array manipulation ops: constants, placeholders, reshaping, layout."""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from repro import dtypes
from repro.core.graph import Graph
from repro.core.kernels.registry import Cost, register_kernel
from repro.core.ops.common import (
    NUMERIC,
    OutputSpecs,
    any_symbolic,
    declared_in_attrs,
    graph_of,
    make_symbolic,
    merged_shape,
    normalize_axis,
    runtime_shape,
    runtime_spec,
    same_as_input,
    to_tensor,
    uniform_dtype,
)
from repro.core.tensor import (
    NP_DESCRIBED,
    SymbolicValue,
    Tensor,
    TensorShape,
    as_shape,
    value_nbytes,
)
from repro.errors import InvalidArgumentError

__all__ = [
    "constant",
    "placeholder",
    "identity",
    "cast",
    "reshape",
    "transpose",
    "concat",
    "split",
    "stack",
    "squeeze",
    "expand_dims",
    "fill",
    "zeros",
    "ones",
    "zeros_like",
    "slice_",
]


# ---------------------------------------------------------------------------
# builders: coerce arguments, then create_op (the shape function registered
# for the op type derives and validates the output specs)
# ---------------------------------------------------------------------------

_LITERAL_DTYPES = {np.dtype(np.float64): np.float32, np.dtype(np.int64): np.int32}


def constant(value: Any, dtype=None, shape=None, name: str = "Const",
             graph: Optional[Graph] = None) -> Tensor:
    """An immutable tensor holding ``value``."""
    g = graph_of(graph=graph)
    arr = np.asarray(value)
    if dtype is None:
        dtype = arr.dtype
        if not isinstance(value, NP_DESCRIBED):
            # Python literals default to float32/int32, as in TF. NumPy
            # arrays and scalars keep their explicit dtype.
            dtype = _LITERAL_DTYPES.get(dtype, dtype)
    # A constant owns a private array of its declared dtype: freezing it
    # leaves the caller's array writeable, and what a run delivers is what
    # the tensor declares (float16 / uint8 / ... map to a supported width).
    arr = np.array(arr, dtype=dtypes.as_dtype(dtype).np_dtype)
    if shape is not None:
        arr = np.broadcast_to(arr, as_shape(shape).as_tuple()).copy()
    arr.setflags(write=False)
    op = g.create_op("Const", inputs=[], attrs={"value": arr}, name=name)
    return op.outputs[0]


def placeholder(dtype, shape=None, name: str = "Placeholder",
                graph: Optional[Graph] = None) -> Tensor:
    """A tensor whose value is supplied per run through ``feed_dict``."""
    g = graph_of(graph=graph)
    op = g.create_op(
        "Placeholder",
        inputs=[],
        output_specs=[(dtypes.as_dtype(dtype), as_shape(shape))],
        name=name,
    )
    return op.outputs[0]


def identity(value, name: str = "Identity") -> Tensor:
    """Pass-through; useful to pin a copy of a tensor onto a device."""
    x = to_tensor(value)
    return x.graph.create_op("Identity", inputs=[x], name=name).outputs[0]


def cast(value, dtype, name: str = "Cast") -> Tensor:
    x = to_tensor(value)
    target = dtypes.as_dtype(dtype)
    op = x.graph.create_op(
        "Cast", inputs=[x], attrs={"dst_dtype": target.name}, name=name
    )
    return op.outputs[0]


def reshape(value, shape: Sequence[int], name: str = "Reshape") -> Tensor:
    x = to_tensor(value)
    new_shape = tuple(int(d) for d in shape)
    op = x.graph.create_op(
        "Reshape", inputs=[x], attrs={"shape": new_shape}, name=name
    )
    return op.outputs[0]


def transpose(value, perm: Optional[Sequence[int]] = None, name: str = "Transpose") -> Tensor:
    x = to_tensor(value)
    if perm is None:
        if x.shape.rank is None:
            raise InvalidArgumentError("transpose of unknown-rank tensor needs perm")
        perm = tuple(reversed(range(x.shape.rank)))
    perm = tuple(int(p) for p in perm)
    op = x.graph.create_op(
        "Transpose", inputs=[x], attrs={"perm": perm}, name=name
    )
    return op.outputs[0]


def concat(values: Sequence[Any], axis: int, name: str = "Concat") -> Tensor:
    tensors = [to_tensor(v) for v in values]
    if not tensors:
        raise InvalidArgumentError("concat of an empty list")
    op = tensors[0].graph.create_op(
        "Concat", inputs=tensors, attrs={"axis": axis}, name=name
    )
    return op.outputs[0]


def split(value, num_splits: int, axis: int = 0, name: str = "Split") -> list[Tensor]:
    x = to_tensor(value)
    op = x.graph.create_op(
        "Split",
        inputs=[x],
        attrs={"axis": axis, "num_splits": num_splits},
        name=name,
    )
    return list(op.outputs)


def stack(values: Sequence[Any], axis: int = 0, name: str = "Stack") -> Tensor:
    tensors = [to_tensor(v) for v in values]
    if not tensors:
        raise InvalidArgumentError("stack of an empty list")
    op = tensors[0].graph.create_op(
        "Stack", inputs=tensors, attrs={"axis": axis}, name=name
    )
    return op.outputs[0]


def squeeze(value, axis: Optional[int] = None, name: str = "Squeeze") -> Tensor:
    x = to_tensor(value)
    op = x.graph.create_op(
        "Squeeze", inputs=[x], attrs={"axis": axis}, name=name
    )
    return op.outputs[0]


def expand_dims(value, axis: int, name: str = "ExpandDims") -> Tensor:
    x = to_tensor(value)
    op = x.graph.create_op(
        "ExpandDims", inputs=[x], attrs={"axis": axis}, name=name
    )
    return op.outputs[0]


def fill(shape: Sequence[int], value: Union[int, float], dtype=dtypes.float32,
         name: str = "Fill", graph: Optional[Graph] = None) -> Tensor:
    g = graph_of(graph=graph)
    op = g.create_op(
        "Fill",
        inputs=[],
        attrs={
            "shape": as_shape(list(shape)).as_tuple(),
            "fill_value": value,
            "dtype": dtypes.as_dtype(dtype).name,
        },
        name=name,
    )
    return op.outputs[0]


def zeros(shape, dtype=dtypes.float32, name: str = "zeros",
          graph: Optional[Graph] = None) -> Tensor:
    return fill(shape, 0, dtype=dtype, name=name, graph=graph)


def ones(shape, dtype=dtypes.float32, name: str = "ones",
         graph: Optional[Graph] = None) -> Tensor:
    return fill(shape, 1, dtype=dtype, name=name, graph=graph)


def zeros_like(value, name: str = "zeros_like") -> Tensor:
    x = to_tensor(value)
    return x.graph.create_op("ZerosLike", inputs=[x], name=name).outputs[0]


def slice_(value, begin: Sequence[int], size: Sequence[int], name: str = "Slice") -> Tensor:
    """Extract ``value[begin : begin + size]`` along each dimension."""
    x = to_tensor(value)
    op = x.graph.create_op(
        "Slice",
        inputs=[x],
        attrs={
            "begin": tuple(int(b) for b in begin),
            "size": tuple(int(s) for s in size),
        },
        name=name,
    )
    return op.outputs[0]


# ---------------------------------------------------------------------------
# shape functions: (inputs, attrs) -> one (dtype, shape) per output. Run by
# create_op when the op is built and re-run by the graph verifier.
# ---------------------------------------------------------------------------

def _const_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    arr = attrs["value"]
    return [(dtypes.as_dtype(arr.dtype), TensorShape(arr.shape))]


def _cast_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    return [(dtypes.as_dtype(attrs["dst_dtype"]), inputs[0].shape)]


def _reshape_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    new_shape = list(attrs["shape"])
    if new_shape.count(-1) > 1:
        raise InvalidArgumentError("reshape allows at most one -1 dimension")
    static: list[Optional[int]] = []
    known = 1
    for d in new_shape:
        if d == -1:
            static.append(None)
        else:
            static.append(d)
            known *= d
    total = x.shape.num_elements()
    if -1 in new_shape and total is not None:
        if total % known != 0:
            raise InvalidArgumentError(
                f"Cannot reshape {x.shape} ({total} elements) into {new_shape}"
            )
        static[new_shape.index(-1)] = total // known
    elif total is not None and total != known:
        raise InvalidArgumentError(
            f"Cannot reshape {x.shape} into {new_shape}: element count differs"
        )
    return [(x.dtype, TensorShape(static))]


def _transpose_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    perm = tuple(attrs["perm"])
    rank = x.shape.rank
    if rank is None:
        return [(x.dtype, TensorShape(None))]
    if sorted(perm) != list(range(rank)):
        raise InvalidArgumentError(f"Bad permutation {perm} for rank {rank}")
    return [(x.dtype, TensorShape([x.shape[p] for p in perm]))]


def _concat_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    dtype = uniform_dtype(inputs, "concat")
    rank = next((t.shape.rank for t in inputs if t.shape.rank is not None), None)
    if rank is None:
        return [(dtype, TensorShape(None))]
    ax = normalize_axis(attrs["axis"], rank, "concat")
    dims: list[Optional[int]] = list(inputs[0].shape.with_rank(rank).dims or ())
    total: Optional[int] = 0
    for t in inputs:
        s = t.shape.with_rank(rank)
        for i in range(rank):
            if i == ax:
                continue
            if dims[i] is None:
                dims[i] = s[i]
            elif s[i] is not None and s[i] != dims[i]:
                raise InvalidArgumentError(
                    f"concat shapes disagree on dim {i}: {dims[i]} vs {s[i]}"
                )
        if total is not None:
            total = None if s[ax] is None else total + s[ax]
    dims[ax] = total
    return [(dtype, TensorShape(dims))]


def _split_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    num_splits = attrs["num_splits"]
    if x.shape.dims is None:
        return [(x.dtype, TensorShape(None))] * num_splits
    dims = list(x.shape.dims)
    ax = normalize_axis(attrs["axis"], len(dims), "split")
    dim = dims[ax]
    if dim is not None:
        if dim % num_splits != 0:
            raise InvalidArgumentError(
                f"Dimension {dim} not divisible into {num_splits} splits"
            )
        dims[ax] = dim // num_splits
    return [(x.dtype, TensorShape(dims))] * num_splits


def _stack_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    dtype = inputs[0].dtype
    base = merged_shape(inputs)
    if base.dims is None:
        return [(dtype, TensorShape(None))]
    dims = list(base.dims)
    ax = normalize_axis(attrs["axis"], len(dims) + 1, "stack")
    dims.insert(ax, len(inputs))
    return [(dtype, TensorShape(dims))]


def _squeeze_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    axis = attrs["axis"]
    if x.shape.dims is None:
        return [(x.dtype, TensorShape(None))]
    dims = list(x.shape.dims)
    if axis is None:
        dims = [d for d in dims if d != 1]
    else:
        ax = normalize_axis(axis, len(dims), "squeeze")
        if dims[ax] not in (1, None):
            raise InvalidArgumentError(
                f"Cannot squeeze dim {ax} of size {dims[ax]}"
            )
        dims.pop(ax)
    return [(x.dtype, TensorShape(dims))]


def _expand_dims_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    if x.shape.dims is None:
        return [(x.dtype, TensorShape(None))]
    dims = list(x.shape.dims)
    ax = normalize_axis(attrs["axis"], len(dims) + 1, "expand_dims")
    dims.insert(ax, 1)
    return [(x.dtype, TensorShape(dims))]


def _slice_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    begin = tuple(attrs["begin"])
    size = tuple(attrs["size"])
    if len(begin) != len(size):
        raise InvalidArgumentError("slice begin/size rank mismatch")
    if x.shape.rank is not None and x.shape.rank != len(begin):
        raise InvalidArgumentError(
            f"slice begin/size rank {len(begin)} != tensor rank {x.shape.rank}"
        )
    dims = x.shape.dims or (None,) * len(begin)
    for i, (b, s, d) in enumerate(zip(begin, size, dims)):
        if b < 0 or (d is not None and b + s > d):
            raise InvalidArgumentError(
                f"slice [{b}, {b + s}) is out of bounds for dim {i} of "
                f"size {d}"
            )
    return [(x.dtype, TensorShape(size))]


# ---------------------------------------------------------------------------
# kernels, each registered with its OpDef (flags, shape function, and the
# generation contract the repro.fuzz catalog draws from)
# ---------------------------------------------------------------------------

def _memcpy_cost(*values) -> Cost:
    nbytes = sum(value_nbytes(v) for v in values)
    return Cost(mem_bytes=nbytes, kind="memcpy")


@register_kernel("Const", pure=True, inline=True, shape_fn=_const_shape,
                 builder="constant", arity=(0, 0), dtypes=NUMERIC,
                 shape_rule="source")
def _const_kernel(op, inputs, ctx):
    value = op.get_attr("value")
    return [value], Cost.none()


@register_kernel("Placeholder", inline=True, builder="placeholder",
                 arity=(0, 0), dtypes=NUMERIC, shape_rule="source")
def _placeholder_kernel(op, inputs, ctx):
    name = op.outputs[0].name
    if name not in ctx.feeds:
        raise InvalidArgumentError(
            f"Placeholder {op.name!r} requires a feed value", node_def=op.name
        )
    value = ctx.feeds[name]
    if not isinstance(value, SymbolicValue):
        value = np.asarray(value, dtype=op.outputs[0].dtype.np_dtype)
        if not op.outputs[0].shape.is_compatible_with(TensorShape(value.shape)):
            raise InvalidArgumentError(
                f"Feed shape {value.shape} incompatible with placeholder "
                f"shape {op.outputs[0].shape}",
                node_def=op.name,
            )
    return [value], Cost.none()


@register_kernel("Identity", pure=True, inline=True, shape_fn=same_as_input,
                 builder="identity", arity=(1, 1),
                 dtypes=NUMERIC + ("bool",), shape_rule="unary_same")
def _identity_kernel(op, inputs, ctx):
    return [inputs[0]], Cost.none()


@register_kernel("Cast", pure=True, shape_fn=_cast_shape, builder="cast",
                 arity=(1, 1), dtypes=NUMERIC + ("bool",), shape_rule="cast")
def _cast_kernel(op, inputs, ctx):
    target = dtypes.as_dtype(op.get_attr("dst_dtype"))
    (x,) = inputs
    if isinstance(x, SymbolicValue):
        out = make_symbolic(x.shape, target)
    else:
        out = np.asarray(x).astype(target.np_dtype)
    return [out], _memcpy_cost(x, out)


@register_kernel("Reshape", pure=True, inline=True, shape_fn=_reshape_shape,
                 builder="reshape", arity=(1, 1), dtypes=NUMERIC,
                 shape_rule="reshape")
def _reshape_kernel(op, inputs, ctx):
    (x,) = inputs
    new_shape = op.get_attr("shape")
    shape = runtime_shape(x)
    total = math.prod(shape)
    known = math.prod(d for d in new_shape if d != -1)
    resolved = tuple(total // (known or 1) if d == -1 else d for d in new_shape)
    if math.prod(resolved) != total:
        # Checked on the spec, so shape-only and concrete runs agree.
        raise InvalidArgumentError(
            f"Reshape operand shape {shape} ({total} elements) does not "
            f"fit {new_shape}", node_def=op.name,
        )
    if isinstance(x, SymbolicValue):
        return [make_symbolic(resolved, x.dtype)], Cost.none()
    return [np.reshape(x, resolved)], Cost.none()


@register_kernel("Transpose", pure=True, shape_fn=_transpose_shape,
                 builder="transpose", arity=(1, 1), dtypes=NUMERIC,
                 shape_rule="transpose")
def _transpose_kernel(op, inputs, ctx):
    (x,) = inputs
    perm = op.get_attr("perm")
    shape = runtime_shape(x)
    if sorted(perm) != list(range(len(shape))):
        raise InvalidArgumentError(
            f"Transpose perm {tuple(perm)} does not permute the axes of "
            f"operand shape {shape}", node_def=op.name,
        )
    if isinstance(x, SymbolicValue):
        out = make_symbolic(tuple(shape[p] for p in perm), x.dtype)
    else:
        out = np.transpose(x, perm)
    return [out], _memcpy_cost(x, out)


@register_kernel("Concat", pure=True, shape_fn=_concat_shape,
                 builder="concat", arity=(2, 4), dtypes=NUMERIC,
                 shape_rule="concat")
def _concat_kernel(op, inputs, ctx):
    axis = op.get_attr("axis")
    shapes = [runtime_shape(v) for v in inputs]
    first = shapes[0]
    ax = normalize_axis(axis, len(first), "Concat")
    if any(
        len(s) != len(first) or s[:ax] != first[:ax]
        or s[ax + 1:] != first[ax + 1:] for s in shapes
    ):
        raise InvalidArgumentError(
            f"Concat operand shapes {shapes} disagree off axis {axis}",
            node_def=op.name,
        )
    if any_symbolic(inputs):
        dims = list(first)
        dims[ax] = sum(s[ax] for s in shapes)
        out = make_symbolic(dims, runtime_spec(inputs[0]).dtype)
    else:
        out = np.concatenate([np.asarray(v) for v in inputs], axis=axis)
    return [out], _memcpy_cost(*inputs)


@register_kernel("Split", pure=True, shape_fn=_split_shape, builder="split",
                 arity=(1, 1), dtypes=NUMERIC, shape_rule="split")
def _split_kernel(op, inputs, ctx):
    (x,) = inputs
    axis = op.get_attr("axis")
    n = op.get_attr("num_splits")
    dims = list(runtime_shape(x))
    ax = normalize_axis(axis, len(dims), "Split")
    if dims[ax] % n:
        raise InvalidArgumentError(
            f"Split operand shape {tuple(dims)} does not divide into {n} "
            f"along axis {axis}", node_def=op.name,
        )
    if isinstance(x, SymbolicValue):
        dims[ax] //= n
        outs = [make_symbolic(dims, x.dtype) for _ in range(n)]
    else:
        outs = [np.ascontiguousarray(part) for part in np.split(np.asarray(x), n, axis=axis)]
    return outs, _memcpy_cost(x)


@register_kernel("Stack", pure=True, shape_fn=_stack_shape, builder="stack",
                 arity=(2, 4), dtypes=NUMERIC, shape_rule="stack")
def _stack_kernel(op, inputs, ctx):
    axis = op.get_attr("axis")
    shapes = [runtime_shape(v) for v in inputs]
    if any(s != shapes[0] for s in shapes):
        raise InvalidArgumentError(
            f"Stack operand shapes {shapes} are not all equal",
            node_def=op.name,
        )
    if any_symbolic(inputs):
        dims = list(shapes[0])
        dims.insert(normalize_axis(axis, len(dims) + 1, "Stack"), len(inputs))
        out = make_symbolic(dims, runtime_spec(inputs[0]).dtype)
    else:
        out = np.stack([np.asarray(v) for v in inputs], axis=axis)
    return [out], _memcpy_cost(*inputs)


@register_kernel("Squeeze", pure=True, inline=True, shape_fn=_squeeze_shape,
                 builder="squeeze", arity=(1, 1), dtypes=NUMERIC,
                 shape_rule="squeeze")
def _squeeze_kernel(op, inputs, ctx):
    (x,) = inputs
    axis = op.get_attr("axis")
    dims = list(runtime_shape(x))
    if axis is None:
        dims = [d for d in dims if d != 1]
    elif dims.pop(normalize_axis(axis, len(dims), "Squeeze")) != 1:
        raise InvalidArgumentError(
            f"Squeeze operand shape {runtime_shape(x)} is not of size 1 "
            f"along axis {axis}", node_def=op.name,
        )
    if isinstance(x, SymbolicValue):
        out = make_symbolic(dims, x.dtype)
    else:
        out = np.squeeze(x, axis=axis) if axis is not None else np.squeeze(x)
    return [out], Cost.none()


@register_kernel("ExpandDims", pure=True, inline=True,
                 shape_fn=_expand_dims_shape, builder="expand_dims",
                 arity=(1, 1), dtypes=NUMERIC, shape_rule="expand_dims")
def _expand_dims_kernel(op, inputs, ctx):
    (x,) = inputs
    axis = op.get_attr("axis")
    if isinstance(x, SymbolicValue):
        dims = list(x.shape)
        ax = axis % (len(dims) + 1)
        dims.insert(ax, 1)
        out = make_symbolic(dims, x.dtype)
    else:
        out = np.expand_dims(x, axis=axis)
    return [out], Cost.none()


@register_kernel("Fill", pure=True, shape_fn=declared_in_attrs, builder="fill",
                 arity=(0, 0), dtypes=NUMERIC, shape_rule="source")
def _fill_kernel(op, inputs, ctx):
    shape = op.get_attr("shape")
    value = op.get_attr("fill_value")
    dtype = op.outputs[0].dtype
    if ctx.symbolic:
        out = make_symbolic(shape, dtype)
    else:
        out = np.full(shape, value, dtype=dtype.np_dtype)
    return [out], Cost(mem_bytes=value_nbytes(out), kind="memcpy")


@register_kernel("ZerosLike", pure=True, shape_fn=same_as_input,
                 builder="zeros_like", arity=(1, 1), dtypes=NUMERIC,
                 shape_rule="unary_same")
def _zeros_like_kernel(op, inputs, ctx):
    (x,) = inputs
    if isinstance(x, SymbolicValue):
        out = make_symbolic(x.shape, x.dtype)
    else:
        out = np.zeros_like(x)
    return [out], Cost(mem_bytes=value_nbytes(out), kind="memcpy")


@register_kernel("Slice", pure=True, shape_fn=_slice_shape, builder="slice_",
                 arity=(1, 1), dtypes=NUMERIC, shape_rule="slice")
def _slice_kernel(op, inputs, ctx):
    (x,) = inputs
    begin = op.get_attr("begin")
    size = op.get_attr("size")
    shape = runtime_shape(x)
    if len(shape) != len(begin) or any(
        b + s > d for b, s, d in zip(begin, size, shape)
    ):
        raise InvalidArgumentError(
            f"Slice begin {tuple(begin)} size {tuple(size)} is out of "
            f"bounds for operand shape {shape}", node_def=op.name,
        )
    if isinstance(x, SymbolicValue):
        out = make_symbolic(size, x.dtype)
    else:
        index = tuple(slice(b, b + s) for b, s in zip(begin, size))
        out = np.ascontiguousarray(np.asarray(x)[index])
    return [out], Cost(mem_bytes=2 * value_nbytes(out), kind="memcpy")
