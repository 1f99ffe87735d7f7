"""Random tensor generators with deterministic, counter-based streams.

Kernels use NumPy's Philox bit generator keyed by
``(graph_seed, op_seed)`` with a per-op execution counter, so re-running a
program reproduces the same values while successive ``session.run`` calls
still draw fresh numbers — the same contract TF's stateful random ops give.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import dtypes
from repro.core.graph import Graph
from repro.core.kernels.registry import Cost, register_kernel
from repro.core.ops.common import declared_in_attrs, graph_of
from repro.core.tensor import Tensor, as_shape
from repro.errors import InvalidArgumentError

__all__ = ["random_uniform", "random_normal"]


def _random_op(op_type: str, shape: Sequence[int], dtype, seed: Optional[int],
               attrs: dict, name: str, graph: Optional[Graph]) -> Tensor:
    g = graph_of(graph=graph)
    target = dtypes.as_dtype(dtype)
    if not target.is_floating:
        raise InvalidArgumentError(
            f"{op_type} supports floating dtypes, got {target.name}"
        )
    op = g.create_op(
        op_type,
        inputs=[],
        attrs={
            "shape": as_shape(list(shape)).as_tuple(),
            "dtype": target.name,
            "seed": seed,
            **attrs,
        },
        name=name,
    )
    return op.outputs[0]


def random_uniform(shape: Sequence[int], minval: float = 0.0, maxval: float = 1.0,
                   dtype=dtypes.float32, seed: Optional[int] = None,
                   name: str = "RandomUniform", graph: Optional[Graph] = None) -> Tensor:
    """Uniform samples in ``[minval, maxval)``."""
    return _random_op(
        "RandomUniform", shape, dtype, seed,
        {"minval": float(minval), "maxval": float(maxval)}, name, graph,
    )


def random_normal(shape: Sequence[int], mean: float = 0.0, stddev: float = 1.0,
                  dtype=dtypes.float32, seed: Optional[int] = None,
                  name: str = "RandomNormal", graph: Optional[Graph] = None) -> Tensor:
    """Normal samples with the given moments."""
    return _random_op(
        "RandomNormal", shape, dtype, seed,
        {"mean": float(mean), "stddev": float(stddev)}, name, graph,
    )


def _make_rng(op, ctx) -> np.random.Generator:
    graph_seed = ctx.graph_seed if ctx.graph_seed is not None else 0
    op_seed = op.get_attr("seed")
    if op_seed is None:
        # Stable per-op identity: the node id within the graph.
        op_seed = op.node_id + 1
    counter = ctx.resources.next_rng_counter(op.name)
    bitgen = np.random.Philox(
        key=np.array([graph_seed & 0xFFFFFFFFFFFFFFFF,
                      op_seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
        counter=np.array([counter, 0, 0, 0], dtype=np.uint64),
    )
    return np.random.Generator(bitgen)


def _random_cost(in_specs, out_specs, attrs) -> Cost:
    (out,) = out_specs
    # ~10 flops per Philox sample plus the output write.
    return Cost(flops=10.0 * out.size, mem_bytes=out.nbytes, kind="compute")


@register_kernel("RandomUniform", stateful=True, shape_fn=declared_in_attrs,
                 cost=_random_cost, builder="random_uniform")
def _random_uniform_kernel(op, inputs, ctx):
    lo = op.get_attr("minval")
    hi = op.get_attr("maxval")
    out = _make_rng(op, ctx).random(size=op.get_attr("shape"),
                                    dtype=np.float64) * (hi - lo) + lo
    return [out.astype(op.outputs[0].dtype.np_dtype)]


@register_kernel("RandomNormal", stateful=True, shape_fn=declared_in_attrs,
                 cost=_random_cost, builder="random_normal")
def _random_normal_kernel(op, inputs, ctx):
    out = _make_rng(op, ctx).normal(loc=op.get_attr("mean"),
                                    scale=op.get_attr("stddev"),
                                    size=op.get_attr("shape"))
    return [out.astype(op.outputs[0].dtype.np_dtype)]
