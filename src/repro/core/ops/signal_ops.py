"""Spectral ops: 1-D FFT / inverse FFT.

The flop convention follows the paper: ``5 N log2 N`` for a length-``N``
complex transform (the standard Cooley–Tukey operation count).
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.kernels.registry import Cost, ShapeFn, register_kernel
from repro.core.ops.common import OutputSpecs, runtime_spec, to_tensor

from repro.core.tensor import SymbolicValue, Tensor
from repro.errors import InvalidArgumentError

__all__ = ["fft", "ifft"]


def _fft_like(op_type: str, x, name: str) -> Tensor:
    xt = to_tensor(x)
    return xt.graph.create_op(op_type, inputs=[xt], name=name).outputs[0]


def _fft_shape(op_type: str) -> ShapeFn:
    def shape_fn(inputs: Sequence[Tensor], attrs: Mapping[str, Any]) -> OutputSpecs:
        xt = inputs[0]
        if not xt.dtype.is_complex:
            raise InvalidArgumentError(
                f"{op_type} requires a complex input, got {xt.dtype.name}; cast first"
            )
        if xt.shape.rank not in (None, 1):
            raise InvalidArgumentError(f"{op_type} implements 1-D transforms, got {xt.shape}")
        return [(xt.dtype, xt.shape)]

    return shape_fn


def fft(x, name: str = "FFT") -> Tensor:
    """1-D discrete Fourier transform of a complex vector."""
    return _fft_like("FFT", x, name)


def ifft(x, name: str = "IFFT") -> Tensor:
    """1-D inverse discrete Fourier transform."""
    return _fft_like("IFFT", x, name)


def _fft_cost(spec: SymbolicValue) -> Cost:
    n = max(spec.size, 1)
    flops = 5.0 * n * max(math.log2(n), 1.0)
    return Cost(flops=flops, mem_bytes=2 * spec.nbytes, kind="compute")


@register_kernel("FFT", pure=True, shape_fn=_fft_shape("FFT"), builder="fft")
def _fft_kernel(op, inputs, ctx):
    (x,) = inputs
    spec = runtime_spec(x)
    cost = _fft_cost(spec)
    if isinstance(x, SymbolicValue):
        return [spec], cost
    out = np.fft.fft(np.asarray(x)).astype(op.outputs[0].dtype.np_dtype, copy=False)
    return [out], cost


@register_kernel("IFFT", pure=True, shape_fn=_fft_shape("IFFT"), builder="ifft")
def _ifft_kernel(op, inputs, ctx):
    (x,) = inputs
    spec = runtime_spec(x)
    cost = _fft_cost(spec)
    if isinstance(x, SymbolicValue):
        return [spec], cost
    out = np.fft.ifft(np.asarray(x)).astype(op.outputs[0].dtype.np_dtype, copy=False)
    return [out], cost
