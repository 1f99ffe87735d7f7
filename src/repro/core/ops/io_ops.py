"""Tile I/O against the simulated parallel filesystem (Lustre).

The paper's matmul and FFT apps pre-process their inputs into ``.npy``
tiles on Lustre; workers then load tiles by index. ``read_tile`` formats a
path pattern with scalar-int tensor inputs (e.g. ``A_{0}_{1}.npy``) so
tile selection can come straight from a Dataset of indices.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import dtypes
from repro.core.graph import Graph, Operation, get_default_graph
from repro.core.kernels.registry import Cost, register_kernel
from repro.core.ops.common import to_tensor
from repro.core.tensor import Tensor, as_shape, value_nbytes


from repro.errors import InvalidArgumentError, UnavailableError

__all__ = ["read_tile", "write_tile"]


def read_tile(pattern: str, indices: Sequence = (), dtype=dtypes.float32,
              shape=None, name: str = "ReadTile",
              graph: Optional[Graph] = None) -> Tensor:
    """Load one tile from the parallel filesystem.

    Args:
        pattern: path pattern with ``{i}`` fields, e.g. ``"A_{0}_{1}.npy"``.
        indices: scalar int tensors (or python ints) substituted into the
            pattern, typically produced by a Dataset of tile indices.
        dtype/shape: static type information for the loaded tile.
    """
    g = graph or get_default_graph()
    index_tensors = [to_tensor(i, dtype=dtypes.int64, graph=g) for i in indices]
    op = g.create_op(
        "ReadTile",
        inputs=index_tensors,
        output_specs=[(dtypes.as_dtype(dtype), as_shape(shape))],
        attrs={"pattern": pattern},
        name=name,
    )
    return op.outputs[0]


def write_tile(value, pattern: str, indices: Sequence = (),
               name: str = "WriteTile") -> Operation:
    """Store a tile to the parallel filesystem."""
    vt = to_tensor(value)
    index_tensors = [to_tensor(i, dtype=dtypes.int64, graph=vt.graph) for i in indices]
    return vt.graph.create_op(
        "WriteTile",
        inputs=[vt, *index_tensors],
        output_specs=[],
        attrs={"pattern": pattern},
        name=name,
    )


def _format_path(pattern: str, index_values) -> str:
    ints = [int(np.asarray(v)) for v in index_values]
    try:
        return pattern.format(*ints)
    except (IndexError, KeyError) as exc:
        raise InvalidArgumentError(
            f"Path pattern {pattern!r} incompatible with indices {ints}"
        ) from exc


@register_kernel("ReadTile", devices=("cpu",), builder="read_tile")
def _read_tile_kernel(op, inputs, ctx):
    fs = ctx.filesystem()
    if fs is None:
        raise UnavailableError(
            "ReadTile requires a machine with a filesystem", node_def=op.name
        )
    path = _format_path(op.get_attr("pattern"), inputs)
    node = ctx.worker.node
    value = yield from fs.read(path, node, symbolic=ctx.symbolic)
    nbytes = value_nbytes(value)
    return [value], Cost(io_bytes=nbytes, kind="io")


@register_kernel("WriteTile", devices=("cpu",), stateful=True,
                 builder="write_tile")
def _write_tile_kernel(op, inputs, ctx):
    fs = ctx.filesystem()
    if fs is None:
        raise UnavailableError(
            "WriteTile requires a machine with a filesystem", node_def=op.name
        )
    value, *index_values = inputs
    path = _format_path(op.get_attr("pattern"), index_values)
    node = ctx.worker.node
    yield from fs.write(path, value, node)
    nbytes = value_nbytes(value)
    return [], Cost(io_bytes=nbytes, kind="io")
