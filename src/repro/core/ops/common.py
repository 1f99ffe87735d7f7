"""Shared helpers for op builders and kernels."""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro import dtypes
from repro.core.graph import Graph, get_default_graph
from repro.core.tensor import NP_DESCRIBED, SymbolicValue, Tensor, TensorShape
from repro.errors import InvalidArgumentError

__all__ = [
    "NUMERIC",
    "FLOATS",
    "OutputSpecs",
    "to_tensor",
    "broadcast_static_shapes",
    "merged_shape",
    "normalize_axis",
    "same_as_input",
    "declared_in_attrs",
    "uniform_dtype",
    "any_symbolic",
    "runtime_shape",
    "runtime_spec",
    "elementwise_spec",
    "make_symbolic",
    "graph_of",
]


def graph_of(*tensors, graph: Optional[Graph] = None) -> Graph:
    """The graph new ops should join: explicit > inferred from inputs > default."""
    if graph is not None:
        return graph
    for t in tensors:
        if isinstance(t, Tensor):
            return t.graph
    return get_default_graph()


def to_tensor(value: Any, dtype=None, graph: Optional[Graph] = None) -> Tensor:
    """Coerce python values / ndarrays to constant tensors in ``graph``."""
    from repro.core.graph import convert_to_tensor

    return convert_to_tensor(value, dtype=dtype, graph=graph)


def broadcast_static_shapes(a: TensorShape, b: TensorShape) -> TensorShape:
    """NumPy broadcasting over partially-known shapes."""
    if a.dims is None or b.dims is None:
        return TensorShape(None)
    ra, rb = len(a.dims), len(b.dims)
    rank = max(ra, rb)
    # Missing leading dimensions broadcast as size 1 (NumPy semantics),
    # so the result dim is the other side's — statically known or not.
    dims_a = (1,) * (rank - ra) + a.dims
    dims_b = (1,) * (rank - rb) + b.dims
    out = []
    for da, db in zip(dims_a, dims_b):
        if da == 1:
            out.append(db)
        elif db == 1:
            out.append(da)
        elif da is None:
            out.append(db if db is not None and db != 1 else None)
        elif db is None:
            out.append(da if da != 1 else None)
        elif da == db:
            out.append(da)
        else:
            raise InvalidArgumentError(
                f"Shapes {a} and {b} are not broadcast-compatible"
            )
    return TensorShape(out)


# -- registration helpers: dtype palettes of the generation contracts ------------

NUMERIC = ("float32", "float64", "int32")
# Float-only: kernels that route through float intermediates whose cast
# back to int is either lossy in surprising ways (Mean) or undefined for
# inf/NaN (Div by zero, Sqrt of negatives).
FLOATS = ("float32", "float64")


# -- shape-function helpers ----------------------------------------------------

# What a shape function returns: one (dtype, shape) pair per output.
OutputSpecs = list[tuple[dtypes.DType, TensorShape]]


def same_as_input(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    """Shape function: one output with the first input's dtype and shape."""
    return [(inputs[0].dtype, inputs[0].shape)]


def declared_in_attrs(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    """Shape function of sources whose ``dtype``/``shape`` attrs say it all."""
    return [(dtypes.as_dtype(attrs["dtype"]), TensorShape(attrs["shape"]))]


def uniform_dtype(inputs: Sequence[Tensor], what: str) -> dtypes.DType:
    """The dtype every input shares, or raise naming ``what``."""
    dtype = inputs[0].dtype
    for t in inputs[1:]:
        if t.dtype != dtype:
            raise InvalidArgumentError(
                f"{what} dtype mismatch: {dtype.name} vs {t.dtype.name}"
            )
    return dtype


def merged_shape(inputs: Sequence[Tensor]) -> TensorShape:
    """The most specific shape compatible with every input, or raise."""
    shape = inputs[0].shape
    for t in inputs[1:]:
        shape = shape.merge_with(t.shape)
    return shape


def normalize_axis(axis: int, rank: int, what: str) -> int:
    """``axis`` as an index into ``rank`` dims; negatives count from the end."""
    if not -rank <= axis < rank:
        raise InvalidArgumentError(
            f"{what} axis {axis} is out of range for rank {rank}"
        )
    return axis % rank


# -- runtime-value helpers (used by kernels) ---------------------------------

def any_symbolic(values: Sequence[Any]) -> bool:
    return any(isinstance(v, SymbolicValue) for v in values)


def runtime_shape(value: Any) -> tuple[int, ...]:
    if isinstance(value, SymbolicValue):
        return value.shape
    if not isinstance(value, NP_DESCRIBED):
        value = np.asarray(value)
    return value.shape


def runtime_spec(value: Any) -> SymbolicValue:
    return SymbolicValue.of(value)


def make_symbolic(shape: Sequence[int], dtype) -> SymbolicValue:
    return SymbolicValue(shape, dtypes.as_dtype(dtype))


def elementwise_spec(op, values: Sequence[Any]) -> SymbolicValue:
    """Broadcasted result spec of elementwise ``op`` over runtime values."""
    shape = runtime_shape(values[0])
    for v in values[1:]:
        other = runtime_shape(v)
        if other != shape:
            try:
                shape = np.broadcast_shapes(shape, other)
            except ValueError:
                raise InvalidArgumentError(
                    f"{op.type} operand shapes "
                    f"{[runtime_shape(x) for x in values]} are not "
                    f"broadcast-compatible", node_def=op.name,
                ) from None
    return SymbolicValue(shape, op.outputs[0].dtype)
