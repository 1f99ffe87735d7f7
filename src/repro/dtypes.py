"""Data types for tensors.

A :class:`DType` wraps a NumPy dtype and carries the metadata the runtime
needs: wire size in bytes (for transport cost accounting), numeric class
flags, and a canonical name used in graph serialization.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidArgumentError

__all__ = [
    "DType",
    "float32",
    "float64",
    "complex64",
    "complex128",
    "int32",
    "int64",
    "bool_",
    "as_dtype",
    "ALL_DTYPES",
]


class DType:
    """An immutable tensor element type.

    Attributes:
        name: canonical string name (``"float32"``).
        np_dtype: the corresponding ``numpy.dtype``.
        size: bytes per element on the wire and in device memory.
    """

    __slots__ = ("name", "np_dtype", "size", "_enum", "_complex")

    def __init__(self, name: str, np_dtype, enum: int):
        self.name = name
        self.np_dtype = np.dtype(np_dtype)
        self.size = int(self.np_dtype.itemsize)
        self._enum = enum
        # Read by every matmul/dot cost: classified once, not per read.
        self._complex = bool(np.issubdtype(self.np_dtype, np.complexfloating))

    # -- numeric classification -------------------------------------------
    @property
    def is_floating(self) -> bool:
        return np.issubdtype(self.np_dtype, np.floating)

    @property
    def is_complex(self) -> bool:
        return self._complex

    @property
    def is_integer(self) -> bool:
        return np.issubdtype(self.np_dtype, np.integer)

    @property
    def is_bool(self) -> bool:
        return self.np_dtype == np.bool_

    @property
    def is_numeric(self) -> bool:
        return not self.is_bool

    @property
    def real_dtype(self) -> "DType":
        """The real-valued dtype carrying one component of this dtype."""
        if self is complex64:
            return float32
        if self is complex128:
            return float64
        return self

    @property
    def enum(self) -> int:
        """Stable integer tag used by the wire serializer."""
        return self._enum

    # -- protocol ----------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"repro.{self.name}"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        if isinstance(other, DType):
            return self.name == other.name
        try:
            return self.name == as_dtype(other).name
        except (InvalidArgumentError, TypeError):
            return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(self.name)


float32 = DType("float32", np.float32, 1)
float64 = DType("float64", np.float64, 2)
complex64 = DType("complex64", np.complex64, 3)
complex128 = DType("complex128", np.complex128, 4)
int32 = DType("int32", np.int32, 5)
int64 = DType("int64", np.int64, 6)
bool_ = DType("bool", np.bool_, 7)

ALL_DTYPES = (float32, float64, complex64, complex128, int32, int64, bool_)

_BY_NAME = {d.name: d for d in ALL_DTYPES}
_BY_NP = {d.np_dtype: d for d in ALL_DTYPES}
_BY_ENUM = {d.enum: d for d in ALL_DTYPES}


def as_dtype(value) -> DType:
    """Coerce ``value`` (DType, name, numpy dtype, python type) to a DType."""
    if isinstance(value, DType):
        return value
    if isinstance(value, str):
        if value in _BY_NAME:
            return _BY_NAME[value]
        raise InvalidArgumentError(f"Unknown dtype name: {value!r}")
    if value is float:
        return float64
    if value is int:
        return int64
    if value is bool:
        return bool_
    if value is complex:
        return complex128
    try:
        np_dt = np.dtype(value)
    except TypeError as exc:
        raise InvalidArgumentError(f"Cannot convert {value!r} to a DType") from exc
    if np_dt in _BY_NP:
        return _BY_NP[np_dt]
    # Map unsupported widths onto the closest supported type, the way the
    # real framework promotes python literals.
    if np.issubdtype(np_dt, np.floating):
        return float64 if np_dt.itemsize > 4 else float32
    if np.issubdtype(np_dt, np.integer):
        return int64 if np_dt.itemsize > 4 else int32
    if np.issubdtype(np_dt, np.complexfloating):
        return complex128 if np_dt.itemsize > 8 else complex64
    raise InvalidArgumentError(f"Unsupported dtype: {value!r}")


def from_enum(tag: int) -> DType:
    """Inverse of :attr:`DType.enum` (wire deserialization)."""
    try:
        return _BY_ENUM[tag]
    except KeyError as exc:
        raise InvalidArgumentError(f"Unknown dtype enum: {tag}") from exc


def result_dtype(*dtypes: DType) -> DType:
    """NumPy-style promotion across operand dtypes."""
    if not dtypes:
        raise InvalidArgumentError("result_dtype() needs at least one dtype")
    np_result = np.result_type(*[d.np_dtype for d in dtypes])
    return as_dtype(np_result)
