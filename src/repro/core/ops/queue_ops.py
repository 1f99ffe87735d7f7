"""FIFO queues — the data-driven coordination primitive of the paper.

A :class:`FIFOQueue` lives on one device (typically a reducer/merger task).
``enqueue``/``dequeue`` ops are *colocated with the queue*; a producer on a
different task therefore sends its tensors across the network to the
queue's partition (via ``_Send``/``_Recv``), which is precisely how the
paper's workers push tile products to reducers (Figs. 4–6).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro import dtypes
from repro.core.graph import Graph, Operation, get_default_graph
from repro.core.kernels.queue_runtime import SimQueue
from repro.core.kernels.registry import Cost, register_kernel
from repro.core.ops.common import to_tensor
from repro.core.tensor import Tensor, TensorShape, as_shape, value_nbytes
from repro.errors import InvalidArgumentError

__all__ = ["FIFOQueue"]


class FIFOQueue:
    """A bounded queue of (tuples of) tensors.

    Args:
        capacity: maximum number of queued elements.
        dtypes_: one dtype per component.
        shapes: static shape per component (may be partial).
        shared_name: name under which tasks share the queue state.
    """

    def __init__(self, capacity: int, dtypes_: Sequence, shapes: Optional[Sequence] = None,
                 name: str = "fifo_queue", shared_name: Optional[str] = None,
                 graph: Optional[Graph] = None):
        if capacity < 1:
            raise InvalidArgumentError("queue capacity must be >= 1")
        g = graph or get_default_graph()
        self._dtypes = [dtypes.as_dtype(d) for d in dtypes_]
        if shapes is None:
            shapes = [None] * len(self._dtypes)
        if len(shapes) != len(self._dtypes):
            raise InvalidArgumentError("shapes/dtypes length mismatch")
        self._shapes = [as_shape(s) for s in shapes]
        self._queue_op = g.create_op(
            "FIFOQueue",
            inputs=[],
            output_specs=[],
            attrs={
                "capacity": capacity,
                "component_dtypes": [d.name for d in self._dtypes],
                "shared_name": shared_name,
            },
            name=name,
        )

    # -- introspection -------------------------------------------------------
    @property
    def op(self) -> Operation:
        return self._queue_op

    @property
    def name(self) -> str:
        return self._queue_op.name

    @property
    def device(self) -> str:
        return self._queue_op.device

    @property
    def num_components(self) -> int:
        return len(self._dtypes)

    @property
    def graph(self) -> Graph:
        return self._queue_op.graph

    def _runtime_key(self) -> str:
        return self._queue_op.get_attr("shared_name") or self._queue_op.name

    # -- graph ops ------------------------------------------------------------
    def enqueue(self, values: Union[Tensor, Sequence], name: str = "enqueue") -> Operation:
        """Op pushing one element (blocks while the queue is full)."""
        if isinstance(values, (Tensor,)) or not isinstance(values, (list, tuple)):
            values = [values]
        if len(values) != self.num_components:
            raise InvalidArgumentError(
                f"enqueue expects {self.num_components} components, got {len(values)}"
            )
        tensors = []
        for v, dt in zip(values, self._dtypes):
            t = to_tensor(v, dtype=None, graph=self.graph)
            if t.dtype != dt:
                raise InvalidArgumentError(
                    f"enqueue component dtype {t.dtype.name} != queue dtype {dt.name}"
                )
            tensors.append(t)
        op = self.graph.create_op(
            "QueueEnqueue",
            inputs=tensors,
            output_specs=[],
            attrs={"queue": self._runtime_key(),
                   "capacity": self._queue_op.get_attr("capacity"),
                   "num_components": self.num_components},
            name=f"{self.name}/{name}",
            device=self.device,
        )
        return op

    def dequeue(self, name: str = "dequeue") -> Union[Tensor, list[Tensor]]:
        """Tensor(s) for one dequeued element (blocks while empty)."""
        op = self.graph.create_op(
            "QueueDequeue",
            inputs=[],
            output_specs=[(d, s) for d, s in zip(self._dtypes, self._shapes)],
            attrs={"queue": self._runtime_key(),
                   "capacity": self._queue_op.get_attr("capacity"),
                   "num_components": self.num_components},
            name=f"{self.name}/{name}",
            device=self.device,
        )
        if self.num_components == 1:
            return op.outputs[0]
        return list(op.outputs)

    def size(self, name: str = "size") -> Tensor:
        op = self.graph.create_op(
            "QueueSize",
            inputs=[],
            output_specs=[(dtypes.int32, TensorShape([]))],
            attrs={"queue": self._runtime_key(),
                   "capacity": self._queue_op.get_attr("capacity"),
                   "num_components": self.num_components},
            name=f"{self.name}/{name}",
            device=self.device,
        )
        return op.outputs[0]

    def close(self, cancel_pending_enqueues: bool = False, name: str = "close") -> Operation:
        return self.graph.create_op(
            "QueueClose",
            inputs=[],
            output_specs=[],
            attrs={"queue": self._runtime_key(),
                   "capacity": self._queue_op.get_attr("capacity"),
                   "num_components": self.num_components,
                   "cancel_pending_enqueues": cancel_pending_enqueues},
            name=f"{self.name}/{name}",
            device=self.device,
        )


def _get_queue(op, ctx) -> SimQueue:
    key = op.get_attr("queue")
    queues = ctx.resources.queues
    if key not in queues:
        queues[key] = SimQueue(
            env=ctx.env,
            capacity=op.get_attr("capacity"),
            num_components=op.get_attr("num_components"),
            name=key,
        )
    return queues[key]


@register_kernel("FIFOQueue", devices=("cpu",), builder="FIFOQueue", graph_only=True)
def _queue_create_kernel(op, inputs, ctx):
    # Creation is lazy in _get_queue; the handle op itself is a no-op so
    # that running it (e.g. through an init fetch) is harmless.
    return [], Cost.none()


def _queue_op_host_work(ctx):
    """Per-queue-op host overhead, serialized on the task's GIL.

    TF queue ops cost tens of microseconds of host work each; when one
    reducer task services dozens of enqueue/dequeue ops per step, this
    serial section is what limits synchronous scaling (the QueueRunner/
    GIL effect the paper discusses).
    """
    if ctx.worker is None or ctx.env is None:
        return
    overhead = 2 * ctx.worker.node.cpu.model.dispatch_overhead
    gil = ctx.worker.gil
    # Uncontended GIL: grab the slot synchronously (no calendar event).
    request = gil.try_acquire()
    if request is None:
        request = gil.request()
        yield request
    try:
        yield ctx.env.timeout(overhead)
    finally:
        gil.release(request)


@register_kernel("QueueEnqueue", devices=("cpu",), builder="FIFOQueue", stateful=True)
def _enqueue_kernel(op, inputs, ctx):
    queue = _get_queue(op, ctx)
    yield from _queue_op_host_work(ctx)
    if not queue.try_enqueue(list(inputs)):
        yield queue.enqueue(list(inputs))
    nbytes = sum(value_nbytes(v) for v in inputs)
    return [], Cost(mem_bytes=nbytes, kind="sync")


@register_kernel("QueueDequeue", devices=("cpu",), builder="FIFOQueue", stateful=True)
def _dequeue_kernel(op, inputs, ctx):
    queue = _get_queue(op, ctx)
    yield from _queue_op_host_work(ctx)
    ready, components = queue.try_dequeue()
    if not ready:
        components = yield queue.dequeue()
    nbytes = sum(value_nbytes(v) for v in components)
    return list(components), Cost(mem_bytes=nbytes, kind="sync")


@register_kernel("QueueSize", devices=("cpu",), builder="FIFOQueue", graph_only=True)
def _queue_size_kernel(op, inputs, ctx):
    import numpy as np

    queue = _get_queue(op, ctx)
    return [np.asarray(queue.size(), dtype=np.int32)], Cost.none()


@register_kernel("QueueClose", devices=("cpu",),
                 builder="FIFOQueue", stateful=True, graph_only=True)
def _queue_close_kernel(op, inputs, ctx):
    queue = _get_queue(op, ctx)
    queue.close(cancel_pending_enqueues=op.get_attr("cancel_pending_enqueues", False))
    return [], Cost.none()
