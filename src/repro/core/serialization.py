"""Wire serialization: a ProtoBuf-like TLV format for tensors.

TensorFlow serializes tensors (and graphs) as protocol buffers; this
module reproduces the format family — varints + length-delimited fields —
for the tensor half, which is what :mod:`repro.core.checkpoint` writes to
disk. Graphs are never shipped anywhere in this model, so there is no
graph codec: the 2 GB GraphDef ceiling the paper runs into when unrolling
loops is discussed in ``docs/ARCHITECTURE.md``, not modelled.
"""

from __future__ import annotations

import io
from typing import BinaryIO

import numpy as np

from repro import dtypes
from repro.core.tensor import SymbolicValue
from repro.errors import DataLossError, InvalidArgumentError

__all__ = [
    "encode_varint",
    "decode_varint",
    "serialize_tensor",
    "deserialize_tensor",
]


# ---------------------------------------------------------------------------
# varints
# ---------------------------------------------------------------------------

def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint (the protobuf wire primitive)."""
    if value < 0:
        raise InvalidArgumentError(f"varints encode non-negative ints, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(stream: BinaryIO) -> int:
    result = 0
    shift = 0
    while True:
        raw = stream.read(1)
        if not raw:
            raise DataLossError("Truncated varint")
        byte = raw[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift > 63:
            raise DataLossError("Varint too long")


def _write_bytes(stream: BinaryIO, data: bytes) -> None:
    stream.write(encode_varint(len(data)))
    stream.write(data)


def _read_bytes(stream: BinaryIO) -> bytes:
    length = decode_varint(stream)
    data = stream.read(length)
    if len(data) != length:
        raise DataLossError(f"Truncated field: wanted {length} bytes, got {len(data)}")
    return data


def _write_str(stream: BinaryIO, text: str) -> None:
    _write_bytes(stream, text.encode("utf-8"))


def _read_str(stream: BinaryIO) -> str:
    return _read_bytes(stream).decode("utf-8")


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

_TENSOR_CONCRETE = 1
_TENSOR_SYMBOLIC = 2


def serialize_tensor(value) -> bytes:
    """Serialize an ndarray or :class:`SymbolicValue` (spec-only)."""
    stream = io.BytesIO()
    if isinstance(value, SymbolicValue):
        stream.write(encode_varint(_TENSOR_SYMBOLIC))
        stream.write(encode_varint(value.dtype.enum))
        stream.write(encode_varint(len(value.shape)))
        for dim in value.shape:
            stream.write(encode_varint(dim))
        return stream.getvalue()
    # np.asarray (not ascontiguousarray: it promotes 0-d scalars to rank 1);
    # tobytes() below copies, so contiguity does not matter.
    arr = np.asarray(value)
    dtype = dtypes.as_dtype(arr.dtype)
    stream.write(encode_varint(_TENSOR_CONCRETE))
    stream.write(encode_varint(dtype.enum))
    stream.write(encode_varint(arr.ndim))
    for dim in arr.shape:
        stream.write(encode_varint(dim))
    _write_bytes(stream, arr.tobytes())
    return stream.getvalue()


def deserialize_tensor(data: bytes):
    stream = io.BytesIO(data)
    kind = decode_varint(stream)
    dtype = dtypes.from_enum(decode_varint(stream))
    rank = decode_varint(stream)
    shape = tuple(decode_varint(stream) for _ in range(rank))
    if kind == _TENSOR_SYMBOLIC:
        return SymbolicValue(shape, dtype)
    if kind != _TENSOR_CONCRETE:
        raise DataLossError(f"Unknown tensor kind tag {kind}")
    raw = _read_bytes(stream)
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.size
    if len(raw) != expected:
        raise DataLossError(
            f"Tensor payload has {len(raw)} bytes, expected {expected}"
        )
    return np.frombuffer(raw, dtype=dtype.np_dtype).reshape(shape).copy()

