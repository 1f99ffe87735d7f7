"""Tensors, tensor shapes, and shape-only runtime values.

Graph edges carry :class:`Tensor` handles — symbolic references to the
``value_index``-th output of an :class:`~repro.core.graph.Operation`.
Static shapes may be *partially defined* (``None`` dims or unknown rank),
exactly like TensorFlow's shape system.

At run time an edge carries either a ``numpy.ndarray`` (concrete mode) or a
:class:`SymbolicValue` (shape-only mode, used for paper-scale benchmark
problems whose data would not fit in host memory).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro import dtypes
from repro.errors import InvalidArgumentError

__all__ = ["TensorShape", "Tensor", "SymbolicValue", "as_shape", "RuntimeValue"]


class TensorShape:
    """A possibly partially-known static shape.

    ``TensorShape(None)`` means unknown rank; a dimension of ``None`` means
    that dimension's size is unknown.
    """

    __slots__ = ("_dims",)

    def __init__(self, dims: Union[None, "TensorShape", Iterable[Optional[int]]] = None):
        if dims is None:
            self._dims: Optional[tuple[Optional[int], ...]] = None
        elif isinstance(dims, TensorShape):
            self._dims = dims._dims
        else:
            out = []
            for d in dims:
                if d is None:
                    out.append(None)
                else:
                    d = int(d)
                    if d < 0:
                        raise InvalidArgumentError(f"Negative dimension {d} in shape")
                    out.append(d)
            self._dims = tuple(out)

    # -- basic queries -------------------------------------------------------
    @property
    def rank(self) -> Optional[int]:
        return None if self._dims is None else len(self._dims)

    @property
    def dims(self) -> Optional[tuple[Optional[int], ...]]:
        return self._dims

    @property
    def is_fully_defined(self) -> bool:
        return self._dims is not None and all(d is not None for d in self._dims)

    def num_elements(self) -> Optional[int]:
        """Total element count, or None if not fully defined."""
        if not self.is_fully_defined:
            return None
        n = 1
        for d in self._dims:  # type: ignore[union-attr]
            n *= d
        return n

    def as_list(self) -> list[Optional[int]]:
        if self._dims is None:
            raise InvalidArgumentError("as_list() on a shape of unknown rank")
        return list(self._dims)

    def as_tuple(self) -> tuple[int, ...]:
        if not self.is_fully_defined:
            raise InvalidArgumentError(f"Shape {self} is not fully defined")
        return tuple(self._dims)  # type: ignore[arg-type]

    # -- compatibility algebra -------------------------------------------------
    def is_compatible_with(self, other: "TensorShape") -> bool:
        other = as_shape(other)
        if self._dims is None or other._dims is None:
            return True
        if len(self._dims) != len(other._dims):
            return False
        return all(
            a is None or b is None or a == b for a, b in zip(self._dims, other._dims)
        )

    def merge_with(self, other: "TensorShape") -> "TensorShape":
        """The most specific shape compatible with both, or raise."""
        other = as_shape(other)
        if self._dims is None:
            return other
        if other._dims is None:
            return self
        if len(self._dims) != len(other._dims):
            raise InvalidArgumentError(f"Shapes {self} and {other} have different ranks")
        merged = []
        for a, b in zip(self._dims, other._dims):
            if a is not None and b is not None and a != b:
                raise InvalidArgumentError(f"Shapes {self} and {other} are incompatible")
            merged.append(a if a is not None else b)
        return TensorShape(merged)

    def concatenate(self, other: "TensorShape") -> "TensorShape":
        other = as_shape(other)
        if self._dims is None or other._dims is None:
            return TensorShape(None)
        return TensorShape(self._dims + other._dims)

    def with_rank(self, rank: int) -> "TensorShape":
        if self._dims is None:
            return TensorShape([None] * rank)
        if len(self._dims) != rank:
            raise InvalidArgumentError(f"Shape {self} must have rank {rank}")
        return self

    # -- protocol -----------------------------------------------------------
    def __len__(self) -> int:
        if self._dims is None:
            raise InvalidArgumentError("len() on a shape of unknown rank")
        return len(self._dims)

    def __iter__(self):
        if self._dims is None:
            raise InvalidArgumentError("iter() on a shape of unknown rank")
        return iter(self._dims)

    def __getitem__(self, key):
        if self._dims is None:
            raise InvalidArgumentError("Indexing a shape of unknown rank")
        if isinstance(key, slice):
            return TensorShape(self._dims[key])
        return self._dims[key]

    def __eq__(self, other) -> bool:
        try:
            other = as_shape(other)
        except (InvalidArgumentError, TypeError):
            return NotImplemented
        return self._dims == other._dims

    def __hash__(self) -> int:
        return hash(self._dims)

    def __repr__(self) -> str:
        if self._dims is None:
            return "TensorShape(None)"
        return f"TensorShape({list(self._dims)})"

    def __str__(self) -> str:
        if self._dims is None:
            return "<unknown>"
        return "(" + ", ".join("?" if d is None else str(d) for d in self._dims) + ")"


def as_shape(value) -> TensorShape:
    """Coerce value (TensorShape, None, int sequence, np shape) to a shape."""
    if isinstance(value, TensorShape):
        return value
    if value is None:
        return TensorShape(None)
    if isinstance(value, (int, np.integer)):
        return TensorShape([int(value)])
    if isinstance(value, (list, tuple)):
        return TensorShape(value)
    raise InvalidArgumentError(f"Cannot convert {value!r} to a TensorShape")


class Tensor:
    """Symbolic handle to one output of an operation."""

    __slots__ = ("op", "value_index", "name", "dtype", "_shape")

    def __init__(self, op, value_index: int, dtype: dtypes.DType, shape: TensorShape):
        self.op = op
        self.value_index = value_index
        # An op is named once, before its outputs exist: stored, not
        # formatted on each of the optimizer's and partitioner's reads.
        self.name: str = f"{op.name}:{value_index}"
        # ``create_op`` converted both one line before constructing the op.
        self.dtype = dtype
        self._shape = shape

    @property
    def shape(self) -> TensorShape:
        return self._shape

    @property
    def graph(self):
        return self.op.graph

    @property
    def device(self) -> str:
        return self.op.device

    def set_shape(self, shape) -> None:
        """Refine the static shape with caller-supplied information."""
        self._shape = self._shape.merge_with(as_shape(shape))

    def consumers(self) -> list:
        """Operations that take this tensor as a data input."""
        return [
            op
            for op in self.graph.operations
            if any(inp is self for inp in op.inputs)
        ]

    # -- operator overloads (build graph ops lazily to avoid import cycles) --
    def _binary(self, other, fn_name: str, reverse: bool = False):
        from repro.core.ops import math_ops

        fn = getattr(math_ops, fn_name)
        if reverse:
            return fn(other, self)
        return fn(self, other)

    def __add__(self, other):
        return self._binary(other, "add")

    def __radd__(self, other):
        return self._binary(other, "add", reverse=True)

    def __sub__(self, other):
        return self._binary(other, "subtract")

    def __rsub__(self, other):
        return self._binary(other, "subtract", reverse=True)

    def __mul__(self, other):
        return self._binary(other, "multiply")

    def __rmul__(self, other):
        return self._binary(other, "multiply", reverse=True)

    def __truediv__(self, other):
        return self._binary(other, "divide")

    def __rtruediv__(self, other):
        return self._binary(other, "divide", reverse=True)

    def __matmul__(self, other):
        return self._binary(other, "matmul")

    def __neg__(self):
        from repro.core.ops import math_ops

        return math_ops.negative(self)

    def __repr__(self) -> str:
        return (
            f"<Tensor {self.name!r} shape={self._shape} dtype={self.dtype.name}>"
        )

    # Tensors are hashable identities, never implicitly compared by value.
    __hash__ = object.__hash__

    def __bool__(self):
        raise TypeError(
            "A symbolic Tensor has no truth value; use session.run() to get "
            "a concrete value first."
        )


# What NumPy already describes: ``shape``, ``dtype``, ``size`` and ``nbytes``
# are attributes, so nothing needs ``np.asarray`` to answer for them.
NP_DESCRIBED = (np.ndarray, np.generic)


class SymbolicValue:
    """Runtime stand-in for a tensor whose data is not materialized.

    Carries exactly the metadata the cost model needs: a fully-defined
    shape and a dtype. Arithmetic on SymbolicValues is meaningless; any
    attempt to read data is an error by construction (there is no data
    attribute at all).
    """

    __slots__ = ("shape", "dtype", "nbytes")

    def __init__(self, shape: Sequence[int], dtype: dtypes.DType):
        self.shape = tuple(int(d) for d in shape)
        self.dtype = dtypes.as_dtype(dtype)
        # Wire size, read by every allocation, transfer and cost that
        # touches the value: computed once here, not per read.
        self.nbytes: int = self.size * self.dtype.size

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @classmethod
    def of(cls, value: "RuntimeValue") -> "SymbolicValue":
        """The spec of any runtime value (idempotent on SymbolicValue)."""
        if isinstance(value, SymbolicValue):
            return value
        # An array already carries its spec: ``shape`` is a tuple of ints
        # and every lane value has one of the seven dtypes, so reading it
        # is one lookup (other widths map through ``as_dtype``).
        arr = value if isinstance(value, NP_DESCRIBED) else np.asarray(value)
        spec = cls.__new__(cls)
        spec.shape = arr.shape
        spec.dtype = dtypes._BY_NP.get(arr.dtype) or dtypes.as_dtype(arr.dtype)
        spec.nbytes = arr.size * spec.dtype.size
        return spec

    def __repr__(self) -> str:
        return f"SymbolicValue(shape={self.shape}, dtype={self.dtype.name})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicValue):
            return NotImplemented
        return self.shape == other.shape and self.dtype == other.dtype

    def __hash__(self) -> int:
        return hash((self.shape, self.dtype))


# A runtime value flowing along a graph edge.
RuntimeValue = Union[np.ndarray, SymbolicValue]


def value_nbytes(value: RuntimeValue) -> int:
    """Wire size in bytes of a runtime value."""
    if isinstance(value, SymbolicValue):
        return value.nbytes
    if not isinstance(value, NP_DESCRIBED):
        value = np.asarray(value)
    return value.nbytes
