"""Shared helpers for op builders and shape functions.

A shape function reads its inputs' dims through :func:`dims_of`: a
tensor's static dims at build and verify time (``None`` for an unknown
rank or size), a run-time value's shape tuple when the op runs. The helpers
below therefore take and return plain dims tuples; only an error message
builds a :class:`TensorShape`.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional, Sequence

from repro import dtypes
from repro.core.graph import Graph, get_default_graph
from repro.core.tensor import Tensor, TensorShape, dims_of
from repro.errors import InvalidArgumentError

__all__ = [
    "NUMERIC",
    "FLOATS",
    "Dims",
    "OutputSpecs",
    "to_tensor",
    "broadcast_dims",
    "merge_dims",
    "merged_dims",
    "num_elements",
    "normalize_axis",
    "no_outputs",
    "same_as_input",
    "declared_in_attrs",
    "uniform_dtype",
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


# -- registration helpers: dtype palettes of the generation contracts ------------

NUMERIC = ("float32", "float64", "int32")
# Float-only: kernels that route through float intermediates whose cast
# back to int is either lossy in surprising ways (Mean) or undefined for
# inf/NaN (Div by zero, Sqrt of negatives).
FLOATS = ("float32", "float64")


# -- shape-function helpers ----------------------------------------------------

# A spec's dims: None for an unknown rank, None entries for unknown sizes.
Dims = Optional[tuple]
# What a shape function returns: one (dtype, dims) pair per output.
OutputSpecs = list[tuple[dtypes.DType, Dims]]


def broadcast_dims(a: Dims, b: Dims) -> Dims:
    """NumPy broadcasting over partially-known dims."""
    if a is None or b is None:
        return None
    if a == b or not b:
        return a
    if not a:
        return b
    rank = max(len(a), len(b))
    # Missing leading dimensions broadcast as size 1 (NumPy semantics),
    # so the result dim is the other side's — statically known or not.
    out = []
    for da, db in zip((1,) * (rank - len(a)) + a, (1,) * (rank - len(b)) + b):
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
                f"Shapes {TensorShape(a)} and {TensorShape(b)} are not "
                f"broadcast-compatible"
            )
    return tuple(out)


def merge_dims(a: Dims, b: Dims) -> Dims:
    """The most specific dims compatible with both, or raise."""
    if a is None:
        return b
    if b is None or a == b:
        return a
    if len(a) != len(b):
        raise InvalidArgumentError(
            f"Shapes {TensorShape(a)} and {TensorShape(b)} have different ranks"
        )
    merged = []
    for da, db in zip(a, b):
        if da is not None and db is not None and da != db:
            raise InvalidArgumentError(
                f"Shapes {TensorShape(a)} and {TensorShape(b)} are incompatible"
            )
        merged.append(da if da is not None else db)
    return tuple(merged)


def merged_dims(inputs: Sequence[Any]) -> Dims:
    """The most specific dims compatible with every input, or raise."""
    dims = dims_of(inputs[0])
    for t in inputs[1:]:
        dims = merge_dims(dims, dims_of(t))
    return dims


def num_elements(dims: Dims) -> Optional[int]:
    """Element count, or None if any dim (or the rank) is unknown."""
    if dims is None or None in dims:
        return None
    return math.prod(dims)


def no_outputs(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    """Shape function of ops run for their effect or their control edges."""
    return []


def same_as_input(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    """Shape function: one output with the first input's dtype and shape."""
    return [(inputs[0].dtype, dims_of(inputs[0]))]


def declared_in_attrs(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
    """Shape function of sources whose ``dtype``/``shape`` attrs say it all."""
    return [(dtypes.as_dtype(attrs["dtype"]), attrs["shape"])]


def uniform_dtype(inputs: Sequence[Any], what: str) -> dtypes.DType:
    """The dtype every input shares, or raise naming ``what``."""
    dtype = inputs[0].dtype
    for t in inputs[1:]:
        if t.dtype is not dtype and t.dtype != dtype:
            raise InvalidArgumentError(
                f"{what} dtype mismatch: {dtype.name} vs {t.dtype.name}"
            )
    return dtype


def normalize_axis(axis: int, rank: int, what: str) -> int:
    """``axis`` as an index into ``rank`` dims; negatives count from the end."""
    if not -rank <= axis < rank:
        raise InvalidArgumentError(
            f"{what} axis {axis} is out of range for rank {rank}"
        )
    return axis % rank
