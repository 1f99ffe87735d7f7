"""Array manipulation ops: constants, placeholders, reshaping, layout."""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from repro import dtypes
from repro.core.graph import Graph
from repro.core.kernels.registry import memcpy_cost, no_cost, register_kernel
from repro.core.ops.common import (
    NUMERIC,
    OutputSpecs,
    declared_in_attrs,
    graph_of,
    merged_dims,
    normalize_axis,
    num_elements,
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
    dims_of,
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
# shape functions: (specs, attrs) -> one (dtype, dims) per output. Run by
# create_op on the input tensors, by the graph verifier, and by the
# dispatcher on the run-time values' specs.
# ---------------------------------------------------------------------------

def _const_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    arr = attrs["value"]
    return [(dtypes.as_dtype(arr.dtype), arr.shape)]


def _cast_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    return [(dtypes.as_dtype(attrs["dst_dtype"]), dims_of(inputs[0]))]


def _reshape_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    new_shape = tuple(attrs["shape"])
    if new_shape.count(-1) > 1:
        raise InvalidArgumentError("reshape allows at most one -1 dimension")
    known = math.prod(d for d in new_shape if d != -1)
    total = num_elements(dims_of(inputs[0]))
    if -1 not in new_shape:
        dims: tuple = new_shape
    elif total is None:
        dims = tuple(None if d == -1 else d for d in new_shape)
    elif known == 0:
        raise InvalidArgumentError(
            f"-1 in {new_shape} is ambiguous beside a zero dimension"
        )
    else:
        dims = tuple(total // known if d == -1 else d for d in new_shape)
    if total is not None and num_elements(dims) != total:
        raise InvalidArgumentError(f"{total} elements do not fit {new_shape}")
    return [(inputs[0].dtype, dims)]


def _transpose_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    perm = tuple(attrs["perm"])
    dims = dims_of(x)
    if dims is None:
        return [(x.dtype, None)]
    if sorted(perm) != list(range(len(dims))):
        raise InvalidArgumentError(
            f"perm {perm} does not permute the axes of rank {len(dims)}"
        )
    return [(x.dtype, tuple(dims[p] for p in perm))]


def _concat_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    dtype = uniform_dtype(inputs, "concat")
    shapes = [dims_of(t) for t in inputs]
    rank = next((len(s) for s in shapes if s is not None), None)
    if rank is None:
        return [(dtype, None)]
    ax = normalize_axis(attrs["axis"], rank, "concat")
    dims: list[Optional[int]] = [None] * rank
    total: Optional[int] = 0
    for s in shapes:
        if s is None:
            total = None
            continue
        if len(s) != rank:
            raise InvalidArgumentError(
                f"concat operands disagree in rank: {len(s)} vs {rank}"
            )
        for i, d in enumerate(s):
            if i == ax:
                continue
            if dims[i] is None:
                dims[i] = d
            elif d is not None and d != dims[i]:
                raise InvalidArgumentError(
                    f"concat shapes disagree on dim {i}: {dims[i]} vs {d}"
                )
        total = None if total is None or s[ax] is None else total + s[ax]
    dims[ax] = total
    return [(dtype, dims)]


def _split_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    num_splits = attrs["num_splits"]
    if dims_of(x) is None:
        return [(x.dtype, None)] * num_splits
    dims = list(dims_of(x))
    ax = normalize_axis(attrs["axis"], len(dims), "split")
    dim = dims[ax]
    if dim is not None:
        if dim % num_splits != 0:
            raise InvalidArgumentError(
                f"Dimension {dim} not divisible into {num_splits} splits"
            )
        dims[ax] = dim // num_splits
    return [(x.dtype, dims)] * num_splits


def _stack_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    dtype = inputs[0].dtype
    base = merged_dims(inputs)
    if base is None:
        return [(dtype, None)]
    dims = list(base)
    dims.insert(normalize_axis(attrs["axis"], len(dims) + 1, "stack"),
                len(inputs))
    return [(dtype, dims)]


def _squeeze_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    axis = attrs["axis"]
    if dims_of(x) is None:
        return [(x.dtype, None)]
    dims = list(dims_of(x))
    if axis is None:
        dims = [d for d in dims if d != 1]
    else:
        ax = normalize_axis(axis, len(dims), "squeeze")
        if dims[ax] not in (1, None):
            raise InvalidArgumentError(
                f"Cannot squeeze dim {ax} of size {dims[ax]}"
            )
        dims.pop(ax)
    return [(x.dtype, dims)]


def _expand_dims_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    if dims_of(x) is None:
        return [(x.dtype, None)]
    dims = list(dims_of(x))
    dims.insert(normalize_axis(attrs["axis"], len(dims) + 1, "expand_dims"), 1)
    return [(x.dtype, dims)]


def _slice_shape(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    x = inputs[0]
    begin = tuple(attrs["begin"])
    size = tuple(attrs["size"])
    if len(begin) != len(size):
        raise InvalidArgumentError("slice begin/size rank mismatch")
    dims = dims_of(x)
    if dims is not None and len(dims) != len(begin):
        raise InvalidArgumentError(
            f"slice begin/size rank {len(begin)} != tensor rank {len(dims)}"
        )
    for i, (b, s, d) in enumerate(zip(begin, size, dims or (None,) * len(begin))):
        if b < 0 or (d is not None and b + s > d):
            raise InvalidArgumentError(
                f"slice [{b}, {b + s}) is out of bounds for dim {i} of "
                f"size {d}"
            )
    return [(x.dtype, size)]


# ---------------------------------------------------------------------------
# kernels (values only), each registered with its OpDef: flags, shape
# function, cost, and the generation contract the repro.fuzz catalog draws
# from
# ---------------------------------------------------------------------------

@register_kernel("Const", pure=True, inline=True, kernel_spec=True,
                 shape_fn=_const_shape, cost=no_cost, builder="constant",
                 arity=(0, 0), dtypes=NUMERIC, shape_rule="source")
def _const_kernel(op, inputs, ctx):
    return [op.get_attr("value")]


@register_kernel("Placeholder", inline=True, kernel_spec=True, cost=no_cost,
                 builder="placeholder", arity=(0, 0), dtypes=NUMERIC,
                 shape_rule="source")
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
    return [value]


@register_kernel("Identity", pure=True, inline=True, shape_fn=same_as_input,
                 cost=no_cost, builder="identity", arity=(1, 1),
                 dtypes=NUMERIC + ("bool",), shape_rule="unary_same")
def _identity_kernel(op, inputs, ctx):
    return [inputs[0]]


@register_kernel("Cast", pure=True, shape_fn=_cast_shape, cost=memcpy_cost(),
                 builder="cast", arity=(1, 1), dtypes=NUMERIC + ("bool",),
                 shape_rule="cast")
def _cast_kernel(op, inputs, ctx):
    target = dtypes.as_dtype(op.get_attr("dst_dtype"))
    return [np.asarray(inputs[0]).astype(target.np_dtype)]


@register_kernel("Reshape", pure=True, inline=True, shape_fn=_reshape_shape,
                 cost=no_cost, builder="reshape", arity=(1, 1),
                 dtypes=NUMERIC, shape_rule="reshape")
def _reshape_kernel(op, inputs, ctx):
    return [np.reshape(inputs[0], op.get_attr("shape"))]


@register_kernel("Transpose", pure=True, shape_fn=_transpose_shape,
                 cost=memcpy_cost(), builder="transpose", arity=(1, 1),
                 dtypes=NUMERIC, shape_rule="transpose")
def _transpose_kernel(op, inputs, ctx):
    return [np.transpose(inputs[0], op.get_attr("perm"))]


@register_kernel("Concat", pure=True, shape_fn=_concat_shape,
                 cost=memcpy_cost(outs=0), builder="concat", arity=(2, 4),
                 dtypes=NUMERIC, shape_rule="concat")
def _concat_kernel(op, inputs, ctx):
    return [np.concatenate([np.asarray(v) for v in inputs],
                           axis=op.get_attr("axis"))]


@register_kernel("Split", pure=True, shape_fn=_split_shape,
                 cost=memcpy_cost(outs=0), builder="split", arity=(1, 1),
                 dtypes=NUMERIC, shape_rule="split")
def _split_kernel(op, inputs, ctx):
    return np.split(inputs[0], op.get_attr("num_splits"),
                    axis=op.get_attr("axis"))


@register_kernel("Stack", pure=True, shape_fn=_stack_shape,
                 cost=memcpy_cost(outs=0), builder="stack", arity=(2, 4),
                 dtypes=NUMERIC, shape_rule="stack")
def _stack_kernel(op, inputs, ctx):
    return [np.stack([np.asarray(v) for v in inputs], axis=op.get_attr("axis"))]


@register_kernel("Squeeze", pure=True, inline=True, shape_fn=_squeeze_shape,
                 cost=no_cost, builder="squeeze", arity=(1, 1),
                 dtypes=NUMERIC, shape_rule="squeeze")
def _squeeze_kernel(op, inputs, ctx):
    return [np.squeeze(inputs[0], axis=op.get_attr("axis"))]


@register_kernel("ExpandDims", pure=True, inline=True,
                 shape_fn=_expand_dims_shape, cost=no_cost,
                 builder="expand_dims", arity=(1, 1), dtypes=NUMERIC,
                 shape_rule="expand_dims")
def _expand_dims_kernel(op, inputs, ctx):
    return [np.expand_dims(inputs[0], axis=op.get_attr("axis"))]


@register_kernel("Fill", pure=True, shape_fn=declared_in_attrs,
                 cost=memcpy_cost(ins=0), builder="fill", arity=(0, 0),
                 dtypes=NUMERIC, shape_rule="source")
def _fill_kernel(op, inputs, ctx):
    return [np.full(op.get_attr("shape"), op.get_attr("fill_value"),
                    dtype=op.outputs[0].dtype.np_dtype)]


@register_kernel("ZerosLike", pure=True, shape_fn=same_as_input,
                 cost=memcpy_cost(ins=0), builder="zeros_like", arity=(1, 1),
                 dtypes=NUMERIC, shape_rule="unary_same")
def _zeros_like_kernel(op, inputs, ctx):
    return [np.zeros_like(inputs[0])]


@register_kernel("Slice", pure=True, shape_fn=_slice_shape,
                 cost=memcpy_cost(ins=0, outs=2), builder="slice_",
                 arity=(1, 1), dtypes=NUMERIC, shape_rule="slice")
def _slice_kernel(op, inputs, ctx):
    index = tuple(slice(b, b + s)
                  for b, s in zip(op.get_attr("begin"), op.get_attr("size")))
    return [inputs[0][index]]
