"""Serving signatures and the micro-batcher's gather/scatter arithmetic.

A :class:`ServingSignature` is one callable entry point of the shared
graph — named placeholder inputs whose leading dimension is the batch
axis, plus fetch tensors — the analog of a TF-Serving signature over a
cached subgraph-per-fetch plan. The Session's plan cache keys on
fetch/feed names and fed shapes (never values), so each batch size of a
signature builds one plan, priced for that shape, and reuses it: at most
``max_batch_size`` plans per signature for fixed-row requests.

:class:`MicroBatcher` concatenates compatible requests along axis 0 into
one feed, and scatters the batched results back row-for-row. For
kernels whose execution is row-stable — elementwise ops always, and
BLAS-backed matmul at the small blockings the tests use — batched
execution is byte-identical to running each request alone, the property
the serving tests pin down. (Large BLAS matmuls may pick a different
register blocking per row count, shifting results by an ulp; the
coalescing math itself never touches a value.)
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.core.tensor import Tensor
from repro.errors import InvalidArgumentError
from repro.serving.request import PendingRequest

__all__ = ["ServingSignature", "MicroBatcher"]


class ServingSignature:
    """One named entry point: batchable placeholder inputs -> fetches."""

    def __init__(
        self,
        name: str,
        inputs: dict[str, Tensor],
        outputs: Union[Tensor, Sequence[Tensor]],
    ):
        if not inputs:
            raise InvalidArgumentError(
                f"signature {name!r} needs at least one batchable input"
            )
        self.name = name
        self.inputs = dict(inputs)
        self.single_output = isinstance(outputs, Tensor)
        self.outputs: list[Tensor] = (
            [outputs] if self.single_output else list(outputs)
        )
        if not self.outputs:
            raise InvalidArgumentError(
                f"signature {name!r} needs at least one output tensor"
            )
        graph = self.outputs[0].graph
        for label, tensor in self.inputs.items():
            if not isinstance(tensor, Tensor):
                raise InvalidArgumentError(
                    f"signature {name!r} input {label!r} must be a Tensor, "
                    f"got {type(tensor).__name__}"
                )
            if tensor.graph is not graph:
                raise InvalidArgumentError(
                    f"signature {name!r} input {label!r} is from a "
                    f"different graph than its outputs"
                )
            dims = tensor.shape.dims
            if dims is None or len(dims) < 1 or dims[0] is not None:
                raise InvalidArgumentError(
                    f"signature {name!r} input {label!r} must have a "
                    f"variable leading (batch) dimension — shape "
                    f"[None, ...]; got {tensor.shape}. The batch dim is "
                    f"the micro-batcher's coalescing knob."
                )

    def validate_inputs(
        self, inputs: dict[str, Any]
    ) -> tuple[dict[str, np.ndarray], int]:
        """Coerce one request's inputs; returns (arrays, batch rows)."""
        expected = set(self.inputs)
        got = set(inputs)
        if got != expected:
            raise InvalidArgumentError(
                f"signature {self.name!r} expects inputs "
                f"{sorted(expected)}, got {sorted(got)}"
            )
        arrays: dict[str, np.ndarray] = {}
        rows: Optional[int] = None
        for label, tensor in self.inputs.items():
            value = np.asarray(inputs[label], dtype=tensor.dtype.np_dtype)
            if value.ndim < 1:
                raise InvalidArgumentError(
                    f"signature {self.name!r} input {label!r} must carry "
                    f"a leading batch dimension; got a scalar"
                )
            from repro.core.tensor import TensorShape

            if not tensor.shape.is_compatible_with(TensorShape(value.shape)):
                raise InvalidArgumentError(
                    f"signature {self.name!r} input {label!r} has shape "
                    f"{value.shape}; placeholder expects {tensor.shape}"
                )
            if rows is None:
                rows = value.shape[0]
            elif value.shape[0] != rows:
                raise InvalidArgumentError(
                    f"signature {self.name!r}: inputs disagree on batch "
                    f"rows ({rows} vs {value.shape[0]} for {label!r})"
                )
            arrays[label] = value
        return arrays, int(rows)


class MicroBatcher:
    """Gathers compatible requests into one feed; scatters results back."""

    @staticmethod
    def assemble(
        signature: ServingSignature, batch: Sequence[PendingRequest]
    ) -> tuple[dict[str, np.ndarray], list[int]]:
        """Concatenate per-request inputs along the batch axis.

        A single-request batch passes its arrays through untouched (no
        concatenate/slice round trip on the unbatched path).
        """
        sizes = [pending.rows for pending in batch]
        if len(batch) == 1:
            return dict(batch[0].inputs), sizes
        feed = {
            label: np.concatenate(
                [pending.inputs[label] for pending in batch], axis=0
            )
            for label in signature.inputs
        }
        return feed, sizes

    @staticmethod
    def scatter(
        signature: ServingSignature,
        results: Any,
        sizes: Sequence[int],
    ) -> list[Any]:
        """Split batched fetch values back into per-request outputs.

        Returns one entry per request, mirroring the signature's output
        structure. Slices are copied so responses never pin the whole
        batch buffer (or each other) in memory.
        """
        # Session.run flattens a single-element fetch list to a bare
        # value; renormalize to one array per output tensor.
        values = [results] if len(signature.outputs) == 1 else list(results)
        offsets = np.cumsum([0] + list(sizes))
        scattered: list[Any] = []
        for index in range(len(sizes)):
            lo, hi = offsets[index], offsets[index + 1]
            if len(sizes) == 1:
                rows = list(values)  # untouched single-request fast path
            else:
                rows = [v[lo:hi].copy() for v in values]
            scattered.append(rows[0] if signature.single_output else rows)
        return scattered
