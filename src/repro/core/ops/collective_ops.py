"""First-class collective ops: allreduce, reduce-scatter, allgather, broadcast.

The paper's discussion section argues for "an MPI communication backend
for functions such as allreduce without needing the use of dedicated
servers" (Horovod, the Cray ML plugin). These builders promote the
collectives of :mod:`repro.runtime.collective` into the graph: one
``CollectiveAllReduce`` op has ``W`` inputs (one per rank, each typically
living on a different worker's device) and ``W`` outputs (one reduced
copy per rank, colocated with that rank's input).

What each op type *computes* — input validation and the per-rank results
in canonical rank order, symbolic or concrete — is defined once, by
:func:`repro.runtime.collective.collective_values`; nothing in this file
or in the executor repeats it.

Under a Session the partitioner *lowers* the op into ``W`` per-rank plan
items (see ``build_plan``): each leg sits on its rank's device, receives
its rank's input through the ordinary ``route_value`` send/recv
machinery, and the last leg to arrive drives
:func:`repro.runtime.collective.run_collective` — the value function,
then the chosen clock-only schedule over the simulated transports — so
placement, the plan-time optimizer, the plan cache, the
dependency-counting dispatcher and ``RunMetadata`` all apply, and the
op's simulated time is the standalone schedule's time by construction.

Eagerly (and under ``run_functions_eagerly``) the kernels below call the
same value function directly, so the three frontends produce
byte-identical values and raise byte-identical errors.

Every builder takes an ``algorithm=`` attr selecting the communication
schedule (``"auto"`` — resolved per payload/world size at lowering time
— or any algorithm the strategy registry of
:mod:`repro.runtime.collective` knows for the op type, e.g. ``"ring"`` /
``"tree"`` for allreduce). The algorithm never changes the produced
bytes, only the simulated communication schedule; eager execution
ignores it entirely (there is no simulated network to schedule on).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.core.kernels.registry import Cost, register_kernel
from repro.core.ops.common import (
    NUMERIC,
    OutputSpecs,
    merged_shape,
    runtime_spec,
    to_tensor,
    uniform_dtype,
)
from repro.core.tensor import Tensor, TensorShape, value_nbytes
from repro.errors import InvalidArgumentError
from repro.runtime.collective import (
    collective_values,
    registered_algorithms,
    scatter_rows,
)

__all__ = [
    "COLLECTIVE_OP_TYPES",
    "all_reduce",
    "reduce_scatter",
    "all_gather",
    "broadcast",
]

# Op types the partitioner lowers into per-rank schedule legs.
COLLECTIVE_OP_TYPES = frozenset(
    {
        "CollectiveAllReduce",
        "CollectiveReduceScatter",
        "CollectiveAllGather",
        "CollectiveBroadcast",
    }
)


def _common_attrs(world: int, devices: Optional[Sequence[str]],
                  protocol: Optional[str], algorithm: str,
                  op_type: str) -> dict:
    if devices is not None:
        devices = tuple(str(d) for d in devices)
        if len(devices) != world:
            raise InvalidArgumentError(
                f"collective got {world} ranks but {len(devices)} devices"
            )
    if algorithm != "auto" and algorithm not in registered_algorithms(op_type):
        raise InvalidArgumentError(
            f"{op_type} has no {algorithm!r} algorithm; pick 'auto' or one "
            f"of {list(registered_algorithms(op_type))}"
        )
    return {
        "world": world,
        "devices": devices,
        "protocol": protocol,
        "algorithm": algorithm,
    }


def _rank_tensors(values: Sequence[Any], what: str) -> list[Tensor]:
    if not isinstance(values, (list, tuple)) or not values:
        raise InvalidArgumentError(
            f"{what} expects a non-empty list of per-rank tensors"
        )
    tensors = [to_tensor(v) for v in values]
    graph = tensors[0].graph
    for t in tensors[1:]:
        if t.graph is not graph:
            raise InvalidArgumentError(
                f"{what} ranks span different graphs"
            )
    return tensors


def all_reduce(
    values: Sequence[Any],
    devices: Optional[Sequence[str]] = None,
    protocol: Optional[str] = None,
    algorithm: str = "auto",
    name: str = "CollectiveAllReduce",
) -> list[Tensor]:
    """Sum-allreduce one tensor per rank; returns one reduced copy per rank.

    Args:
        values: per-rank addends of equal shape and dtype (the rank order
            is the schedule order).
        devices: optional explicit per-rank device strings; by default
            each rank's leg colocates with its input's producer — for
            chained collectives, with the upstream *leg* feeding it.
        protocol: bulk transport override for the collective traffic
            (defaults to the session's data protocol).
        algorithm: ``"auto"`` (lowering picks ring vs tree per payload
            and world size), ``"ring"`` (bandwidth-optimal) or ``"tree"``
            (latency-optimal recursive halving/doubling). Values are
            byte-identical either way; only the simulated schedule
            differs. ``RunMetadata.collective_algorithms`` records the
            resolved choice.

    Returns:
        One tensor per rank holding the full sum, colocated with that
        rank's leg. Concrete values accumulate in rank order starting
        from zeros in every frontend, so results are byte-identical
        whether the op runs eagerly, traced, or schedule-lowered.

    Not differentiable: ``repro.gradients`` raises if asked to
    differentiate *through* a collective. Sum per-rank gradients by
    calling ``all_reduce`` on the ``gradients()`` outputs instead (the
    Horovod pattern; see ``repro.apps.sgd``).
    """
    tensors = _rank_tensors(values, "all_reduce")
    op = tensors[0].graph.create_op(
        "CollectiveAllReduce",
        inputs=tensors,
        attrs=_common_attrs(len(tensors), devices, protocol, algorithm,
                            "CollectiveAllReduce"),
        name=name,
    )
    return list(op.outputs)


def reduce_scatter(
    values: Sequence[Any],
    devices: Optional[Sequence[str]] = None,
    protocol: Optional[str] = None,
    algorithm: str = "auto",
    name: str = "CollectiveReduceScatter",
) -> list[Tensor]:
    """Sum-reduce one tensor per rank, scattering axis-0 blocks back.

    The ring allreduce's first half standalone: rank ``r`` receives only
    block ``r`` of the summed buffer (axis 0 cut into ``world`` equal
    blocks), having moved ``(W-1)/W`` of the buffer instead of the
    allreduce's ``2 (W-1)/W``. The primitive for sharded-state updates
    that never need the full result on every rank.

    Args:
        values: per-rank addends of equal shape and dtype, rank >= 1,
            leading dimension a multiple of the number of ranks.
        devices: optional explicit per-rank device strings; by default
            each rank's leg colocates with its input's producer.
        protocol: bulk transport override for the collective traffic.
        algorithm: ``"auto"`` or ``"ring"`` (the only registered
            schedule today).

    Returns:
        One tensor per rank holding that rank's block of the canonical
        rank-order sum, colocated with the rank's leg. Like
        :func:`all_reduce`, not differentiable.
    """
    tensors = _rank_tensors(values, "reduce_scatter")
    op = tensors[0].graph.create_op(
        "CollectiveReduceScatter",
        inputs=tensors,
        attrs=_common_attrs(len(tensors), devices, protocol, algorithm,
                            "CollectiveReduceScatter"),
        name=name,
    )
    return list(op.outputs)


def all_gather(
    values: Sequence[Any],
    devices: Optional[Sequence[str]] = None,
    protocol: Optional[str] = None,
    algorithm: str = "auto",
    name: str = "CollectiveAllGather",
) -> list[Tensor]:
    """Allgather per-rank tensors (concatenated along axis 0) to every rank.

    Args:
        values: per-rank blocks of rank >= 1, equal dtype and trailing
            dims (leading dims may differ — uneven blocks are fine; the
            rank order is the concatenation and ring order).
        devices: optional explicit per-rank device strings; by default
            each rank's leg colocates with its input's producer.
        protocol: bulk transport override for the ring traffic.
        algorithm: ``"auto"`` or ``"ring"`` (the only registered
            schedule today).

    Returns:
        One tensor per rank holding the full axis-0 concatenation,
        colocated with that rank's leg. Like :func:`all_reduce`, not
        differentiable — gather forward values, not gradients.
    """
    tensors = _rank_tensors(values, "all_gather")
    op = tensors[0].graph.create_op(
        "CollectiveAllGather",
        inputs=tensors,
        attrs=_common_attrs(len(tensors), devices, protocol, algorithm,
                            "CollectiveAllGather"),
        name=name,
    )
    return list(op.outputs)


def broadcast(
    value: Any,
    world: Optional[int] = None,
    devices: Optional[Sequence[str]] = None,
    protocol: Optional[str] = None,
    algorithm: str = "auto",
    name: str = "CollectiveBroadcast",
) -> list[Tensor]:
    """Broadcast ``value`` (rank 0, the root) to ``world`` ranks.

    One of ``world``/``devices`` must be given; with ``devices`` the root
    is ``devices[0]`` and every rank's copy lands on its device.

    Placement constraint: under a Session, ``world > 1`` **requires**
    the explicit ``devices=`` list. Unlike :func:`all_reduce` /
    :func:`all_gather` — one input per rank, so every leg has a
    producer to colocate with — a broadcast has a single input, and
    colocating all legs with the root would silently model a ``W``-way
    broadcast as zero communication. The partitioner raises with that
    fix spelled out (pass ``devices=[...]``, or colocate inputs by
    expressing the exchange through the all-rank collectives). Eager
    execution accepts a bare ``world=``: there is no placement.

    Returns:
        ``world`` copies of ``value``, one per rank.
    """
    if devices is not None:
        if world is not None and world != len(devices):
            raise InvalidArgumentError(
                f"broadcast got world={world} but {len(devices)} devices"
            )
        world = len(devices)
    if world is None or world < 1:
        raise InvalidArgumentError(
            "broadcast needs world >= 1 (or an explicit devices list)"
        )
    tensor = to_tensor(value)
    op = tensor.graph.create_op(
        "CollectiveBroadcast",
        inputs=[tensor],
        attrs=_common_attrs(world, devices, protocol, algorithm,
                            "CollectiveBroadcast"),
        name=name,
    )
    return list(op.outputs)


# ---------------------------------------------------------------------------
# shape functions: (inputs, attrs) -> one (dtype, shape) per output. Run by
# create_op when the op is built and re-run by the graph verifier.
# ---------------------------------------------------------------------------

def _all_reduce_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    dtype = uniform_dtype(inputs, "all_reduce")
    return [(dtype, merged_shape(inputs))] * len(inputs)


def _reduce_scatter_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    dtype = uniform_dtype(inputs, "reduce_scatter")
    world = len(inputs)
    dims = merged_shape(inputs).dims
    if dims is None:
        return [(dtype, TensorShape(None))] * world
    if not dims:
        raise InvalidArgumentError(
            "reduce_scatter needs tensors of rank >= 1 (got a scalar)"
        )
    lead = dims[0]
    rows = None if lead is None else scatter_rows(lead, world, "reduce_scatter")
    out_shape = TensorShape([rows, *dims[1:]])
    return [(dtype, out_shape)] * world


def _all_gather_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    dtype = uniform_dtype(inputs, "all_gather")
    lead: Optional[int] = 0
    trailing: Optional[TensorShape] = None
    for t in inputs:
        rank = t.shape.rank
        if rank == 0:
            raise InvalidArgumentError(
                "all_gather needs tensors of rank >= 1 (got a scalar)"
            )
        if rank is None:
            lead, trailing = None, None
            break
        tail = t.shape[1:]
        trailing = tail if trailing is None else trailing.merge_with(tail)
        head = t.shape[0]
        lead = None if (lead is None or head is None) else lead + head
    if trailing is None:
        out_shape = TensorShape(None)
    else:
        out_shape = TensorShape([lead]).concatenate(trailing)
    return [(dtype, out_shape)] * len(inputs)


def _broadcast_shape(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
    return [(inputs[0].dtype, inputs[0].shape)] * attrs["world"]


# ---------------------------------------------------------------------------
# kernels (direct execution: eager / run_functions_eagerly)
# ---------------------------------------------------------------------------
#
# Under a Session these ops never reach kernel dispatch — the partitioner
# lowers them into per-rank schedule legs — so the kernels only implement
# the immediate-execution semantics: the op type's value function plus a
# nominal Cost. They are deliberately *not* ``pure`` (CSE/folding must not
# merge or pre-evaluate communication) and not ``graph_only`` (the
# arithmetic is well-defined without a simulator).


@register_kernel("CollectiveAllReduce", shape_fn=_all_reduce_shape,
                 builder="all_reduce", arity=(2, 8), dtypes=NUMERIC,
                 shape_rule="collective")
def _all_reduce_kernel(op, inputs, ctx):
    world = len(inputs)
    outputs = collective_values(op.type, inputs, world, op.name)
    spec = runtime_spec(inputs[0])
    return outputs, Cost(
        flops=(world - 1) * spec.size,
        mem_bytes=2 * world * spec.nbytes,
        kind="compute",
    )


@register_kernel("CollectiveReduceScatter", shape_fn=_reduce_scatter_shape,
                 builder="reduce_scatter", arity=(2, 8), dtypes=NUMERIC,
                 shape_rule="collective")
def _reduce_scatter_kernel(op, inputs, ctx):
    world = len(inputs)
    outputs = collective_values(op.type, inputs, world, op.name)
    spec = runtime_spec(inputs[0])
    return outputs, Cost(
        flops=(world - 1) * spec.size,
        mem_bytes=(world + 1) * spec.nbytes,
        kind="compute",
    )


@register_kernel("CollectiveAllGather", shape_fn=_all_gather_shape,
                 builder="all_gather", arity=(2, 8), dtypes=NUMERIC,
                 shape_rule="collective")
def _all_gather_kernel(op, inputs, ctx):
    world = len(inputs)
    outputs = collective_values(op.type, inputs, world, op.name)
    nbytes = sum(value_nbytes(v) for v in inputs)
    return outputs, Cost(mem_bytes=(1 + world) * nbytes, kind="memcpy")


@register_kernel("CollectiveBroadcast", shape_fn=_broadcast_shape,
                 builder="broadcast", arity=(1, 1), dtypes=NUMERIC,
                 shape_rule="collective")
def _broadcast_kernel(op, inputs, ctx):
    world = op.get_attr("world")
    outputs = collective_values(op.type, inputs, world, op.name)
    return outputs, Cost(
        mem_bytes=world * value_nbytes(inputs[0]), kind="memcpy"
    )
