"""Data-driven synchronization: the paper's queue-based reducer (Fig. 5).

TF 1.x has no allreduce; the paper reformulates reductions with two FIFO
queues per reduction point:

* workers enqueue partial values into the reducer's *incoming* queue and
  block dequeuing the *outgoing* queue;
* a reducer loop dequeues one value per worker, applies the reduction,
  and enqueues ``num_workers`` copies of the result;
* every worker picks up one copy and proceeds.

This mirrors ``SyncReplicasOptimizer``'s token-queue barrier, which the
paper cites as its model.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro import dtypes
from repro.core.graph import Graph, Operation, get_default_graph
from repro.core.ops import control_flow, math_ops, queue_ops
from repro.core.tensor import Tensor
from repro.errors import InvalidArgumentError

__all__ = ["QueueReducer"]

_REDUCTIONS: dict[str, Callable] = {
    "sum": lambda values: math_ops.add_n(values, name="reduce_sum"),
    "max": lambda values: _fold(values, math_ops.maximum),
    "min": lambda values: _fold(values, math_ops.minimum),
}


def _fold(values, fn):
    acc = values[0]
    for value in values[1:]:
        acc = fn(acc, value)
    return acc


class QueueReducer:
    """Graph-side builder for one reduction point.

    Args:
        num_workers: number of participating workers.
        dtype/shape: the reduced value's type.
        device: the reducer task's device (both queues live there, so
            worker traffic flows across the network exactly once each way).
        reduction: "sum" | "max" | "min".
    """

    def __init__(
        self,
        num_workers: int,
        dtype=dtypes.float64,
        shape: Sequence[int] = (),
        device: str = "",
        reduction: str = "sum",
        name: str = "reducer",
        graph: Optional[Graph] = None,
    ):
        if num_workers < 1:
            raise InvalidArgumentError("num_workers must be >= 1")
        if reduction not in _REDUCTIONS:
            raise InvalidArgumentError(
                f"Unknown reduction {reduction!r}; have {sorted(_REDUCTIONS)}"
            )
        g = graph or get_default_graph()
        self.graph = g
        self.num_workers = num_workers
        self.reduction = reduction
        self.name = name
        self._dtype = dtypes.as_dtype(dtype)
        self._shape = list(shape)
        with g.device(device):
            self.in_queue = queue_ops.FIFOQueue(
                capacity=max(num_workers, 1),
                dtypes_=[self._dtype],
                shapes=[self._shape],
                name=f"{name}/in",
                graph=g,
            )
            self.out_queue = queue_ops.FIFOQueue(
                capacity=max(num_workers, 1),
                dtypes_=[self._dtype],
                shapes=[self._shape],
                name=f"{name}/out",
                graph=g,
            )

    # -- worker side -------------------------------------------------------------
    def worker_reduce(self, value, name: str = "worker_reduce") -> Tensor:
        """Send ``value`` in, block until the reduced value comes back."""
        enqueue = self.in_queue.enqueue(value, name=f"{name}/send")
        with self.graph.control_dependencies([enqueue]):
            return self.out_queue.dequeue(name=f"{name}/wait")

    # -- reducer side -------------------------------------------------------------
    def reducer_step(self, name: str = "reducer_step") -> Operation:
        """One reduction round: collect N, reduce, broadcast N copies."""
        with self.graph.name_scope(name):
            partials = [
                self.in_queue.dequeue(name=f"collect_{i}")
                for i in range(self.num_workers)
            ]
            reduced = _REDUCTIONS[self.reduction](partials)
            sends = []
            for i in range(self.num_workers):
                sends.append(self.out_queue.enqueue(reduced, name=f"bcast_{i}"))
            return control_flow.group(*sends, name="round", graph=self.graph)

    def close(self) -> Operation:
        """Close both queues (shutdown: blocked workers get OutOfRange)."""
        close_in = self.in_queue.close(cancel_pending_enqueues=True)
        close_out = self.out_queue.close(cancel_pending_enqueues=True)
        return control_flow.group(close_in, close_out,
                                  name=f"{self.name}/close", graph=self.graph)
