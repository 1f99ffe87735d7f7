"""Spectral ops: 1-D FFT / inverse FFT.

The flop convention follows the paper: ``5 N log2 N`` for a length-``N``
complex transform (the standard Cooley–Tukey operation count).
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.kernels.registry import Cost, ShapeFn, register_kernel
from repro.core.ops.common import OutputSpecs, to_tensor
from repro.core.tensor import Tensor, dims_of
from repro.errors import InvalidArgumentError

__all__ = ["fft", "ifft"]


def _fft_like(op_type: str, x, name: str) -> Tensor:
    xt = to_tensor(x)
    return xt.graph.create_op(op_type, inputs=[xt], name=name).outputs[0]


def _fft_shape(op_type: str) -> ShapeFn:
    def shape_fn(inputs: Sequence[Any], attrs: Mapping[str, Any]) -> OutputSpecs:
        xt = inputs[0]
        if not xt.dtype.is_complex:
            raise InvalidArgumentError(
                f"{op_type} requires a complex input, got {xt.dtype.name}; cast first"
            )
        dims = dims_of(xt)
        if dims is not None and len(dims) != 1:
            raise InvalidArgumentError(
                f"{op_type} implements 1-D transforms, got rank {len(dims)}"
            )
        return [(xt.dtype, dims)]

    return shape_fn


def fft(x, name: str = "FFT") -> Tensor:
    """1-D discrete Fourier transform of a complex vector."""
    return _fft_like("FFT", x, name)


def ifft(x, name: str = "IFFT") -> Tensor:
    """1-D inverse discrete Fourier transform."""
    return _fft_like("IFFT", x, name)


def _fft_cost(in_specs, out_specs, attrs) -> Cost:
    (x,) = in_specs
    n = max(x.size, 1)
    flops = 5.0 * n * max(math.log2(n), 1.0)
    return Cost(flops=flops, mem_bytes=2 * x.nbytes, kind="compute")


def _fft_kernel(np_fn):
    def kernel(op, inputs, ctx):
        out = np_fn(np.asarray(inputs[0]))
        return [out.astype(op.outputs[0].dtype.np_dtype, copy=False)]

    return kernel


for _op, _builder, _np_fn in (("FFT", "fft", np.fft.fft),
                              ("IFFT", "ifft", np.fft.ifft)):
    register_kernel(_op, pure=True, shape_fn=_fft_shape(_op), cost=_fft_cost,
                    builder=_builder)(_fft_kernel(_np_fn))
