"""A minimal Dataset input-pipeline API.

The paper feeds its workers from datasets of tile indices that are sharded
across tasks ("the list is shared by workers and they individually load
these tiles"). This module provides exactly that slice of the API:
``from_tensor_slices`` → ``shard`` → ``repeat`` → ``map`` → one-shot
iterator whose ``get_next()`` raises :class:`OutOfRangeError` when
exhausted.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence


import numpy as np

from repro import dtypes
from repro.core.graph import Graph, get_default_graph
from repro.core.kernels.registry import Cost, no_cost, register_kernel, total_nbytes
from repro.core.ops.common import no_outputs
from repro.core.tensor import Tensor, TensorShape
from repro.errors import InvalidArgumentError, OutOfRangeError

__all__ = ["Dataset", "DatasetIterator"]


def _lane_array(data) -> np.ndarray:
    """``data`` as an array of the dtype its tensor declares (float16 /
    uint8 / ... map to a supported width), converted once, not per element."""
    arr = np.asarray(data)
    return arr.astype(dtypes.as_dtype(arr.dtype).np_dtype, copy=False)


class Dataset:
    """An immutable, re-iterable sequence of (tuples of) small tensors."""

    def __init__(self, factory: Callable[[], Iterable], element_spec: Sequence[tuple]):
        """Internal constructor; use :meth:`from_tensor_slices`."""
        self._factory = factory
        # element_spec: list of (DType, TensorShape) per component.
        self.element_spec = [
            (dtypes.as_dtype(dt), TensorShape(shape) if not isinstance(shape, TensorShape) else shape)
            for dt, shape in element_spec
        ]

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def from_tensor_slices(data) -> "Dataset":
        """Dataset over the first dimension of ``data``.

        ``data`` may be one array/list or a tuple of equal-length arrays
        (multi-component elements).
        """
        if isinstance(data, tuple):
            arrays = [_lane_array(a) for a in data]
            lengths = {len(a) for a in arrays}
            if len(lengths) != 1:
                raise InvalidArgumentError(
                    f"from_tensor_slices components disagree in length: {lengths}"
                )
            spec = [(dtypes.as_dtype(a.dtype), TensorShape(a.shape[1:])) for a in arrays]

            def factory():
                for row in zip(*arrays):
                    yield tuple(np.asarray(x) for x in row)

            return Dataset(factory, spec)
        arr = _lane_array(data)
        if arr.ndim == 0:
            raise InvalidArgumentError("from_tensor_slices needs at least rank 1")
        spec = [(dtypes.as_dtype(arr.dtype), TensorShape(arr.shape[1:]))]

        def factory():
            for row in arr:
                yield (np.asarray(row),)

        return Dataset(factory, spec)

    @staticmethod
    def range(*args) -> "Dataset":
        values = np.arange(*args, dtype=np.int64)
        return Dataset.from_tensor_slices(values)

    # -- transformations -------------------------------------------------------
    def shard(self, num_shards: int, index: int) -> "Dataset":
        """Every ``num_shards``-th element starting at ``index`` (TF semantics);
        this is how the paper splits one tile list across workers."""
        if not 0 <= index < num_shards:
            raise InvalidArgumentError(
                f"shard index {index} outside [0, {num_shards})"
            )
        parent = self._factory

        def factory():
            for i, element in enumerate(parent()):
                if i % num_shards == index:
                    yield element

        return Dataset(factory, self.element_spec)

    def repeat(self, count: Optional[int] = None) -> "Dataset":
        parent = self._factory

        def factory():
            n = 0
            while count is None or n < count:
                yielded = False
                for element in parent():
                    yielded = True
                    yield element
                if not yielded:
                    return
                n += 1

        return Dataset(factory, self.element_spec)

    def take(self, count: int) -> "Dataset":
        parent = self._factory

        def factory():
            for i, element in enumerate(parent()):
                if i >= count:
                    return
                yield element

        return Dataset(factory, self.element_spec)

    def map(self, fn: Callable, element_spec: Sequence[tuple]) -> "Dataset":
        """Apply a python function per element.

        Unlike TF we cannot trace ``fn`` into the graph, so the caller must
        state the post-map ``element_spec``: ``get_next`` rejects an element
        that contradicts it (``InvalidArgumentError``). Each component is
        delivered as an array, in the dtype ``fn`` gave it.
        """
        parent = self._factory

        def factory():
            for element in parent():
                out = fn(*element)
                if not isinstance(out, tuple):
                    out = (out,)
                yield tuple(np.asarray(x) for x in out)

        return Dataset(factory, element_spec)

    def batch(self, batch_size: int, drop_remainder: bool = False) -> "Dataset":
        parent = self._factory
        spec = [
            (dt, TensorShape([batch_size if drop_remainder else None]).concatenate(shape))
            for dt, shape in self.element_spec
        ]

        def factory():
            buffer: list = []
            for element in parent():
                buffer.append(element)
                if len(buffer) == batch_size:
                    yield tuple(np.stack(col) for col in zip(*buffer))
                    buffer = []
            if buffer and not drop_remainder:
                yield tuple(np.stack(col) for col in zip(*buffer))

        return Dataset(factory, spec)

    # -- iteration ---------------------------------------------------------------
    def make_one_shot_iterator(self, name: str = "Iterator",
                               graph: Optional[Graph] = None) -> "DatasetIterator":
        return DatasetIterator(self, name=name, graph=graph)

    def as_python_list(self) -> list:
        """Materialize all elements (testing convenience)."""
        return [e if len(e) > 1 else e[0] for e in self._factory()]


class DatasetIterator:
    """One-shot iterator over a dataset, exposed as a graph op."""

    def __init__(self, dataset: Dataset, name: str, graph: Optional[Graph]):
        g = graph or get_default_graph()
        self._dataset = dataset
        self._iter_op = g.create_op(
            "IteratorV2",
            inputs=[],
            output_specs=[],
            attrs={"dataset": dataset},
            name=name,
        )

    @property
    def op(self):
        return self._iter_op

    def get_next(self, name: str = "get_next"):
        """Tensor(s) producing the next element; raises OutOfRangeError
        (inside run) once exhausted."""
        op = self._iter_op.graph.create_op(
            "IteratorGetNext",
            inputs=[],
            output_specs=[(dt, shape) for dt, shape in self._dataset.element_spec],
            attrs={"iterator": self._iter_op.name, "dataset": self._dataset},
            name=f"{self._iter_op.name}/{name}",
            device=self._iter_op.device,
        )
        if len(op.outputs) == 1:
            return op.outputs[0]
        return list(op.outputs)


@register_kernel("IteratorV2", devices=("cpu",), shape_fn=no_outputs,
                 cost=no_cost, builder="Dataset", graph_only=True)
def _iterator_kernel(op, inputs, ctx):
    return []


def _get_next_cost(in_specs, out_specs, attrs) -> Cost:
    # Input pipelines run on the host; charge a light host cost.
    return Cost(host_bytes=total_nbytes(out_specs), kind="io")


@register_kernel("IteratorGetNext", devices=("cpu",), kernel_spec=True,
                 cost=_get_next_cost, builder="Dataset", stateful=True,
                 graph_only=True)
def _get_next_kernel(op, inputs, ctx):
    key = op.get_attr("iterator")
    iterators = ctx.resources.iterators
    if key not in iterators:
        iterators[key] = iter(op.get_attr("dataset")._factory())
    try:
        element = next(iterators[key])
    except StopIteration:
        raise OutOfRangeError("End of sequence", node_def=op.name) from None
    return list(element)
