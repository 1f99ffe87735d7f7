"""Host CPU models.

The host matters in two ways the paper calls out explicitly:

* serial Python/NumPy phases (the FFT merger: "the process of merging in
  Python takes considerably longer than the computation part") — charged
  through ``Cost.host_bytes`` at ``python_bytes_rate``;
* serialization for MPI/gRPC transports — the staging copies that cap MPI
  at a few hundred MB/s in Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simnet.events import Environment
from repro.simnet.memory import MemoryPool
from repro.simnet.resources import Resource

__all__ = ["CPUModel", "CPUDevice"]


@dataclass(frozen=True)
class CPUModel:
    """Static description of a host processor configuration (per node),
    built from :data:`repro.simnet.parameters.PARAMETERS` (units follow
    the field names). ``sustained_flops`` is the aggregate usable rate for
    NumPy-backed math, ``serialize_rate`` protobuf-style serialization,
    ``python_bytes_rate`` interpreter-bound slicing and merging, and
    ``numpy_bytes_rate`` one vectorized NumPy op (e.g. ``+=``)."""

    name: str
    cores: int
    sustained_flops: float
    mem_bandwidth: float
    mem_capacity: int
    serialize_rate: float
    python_bytes_rate: float
    numpy_bytes_rate: float
    dispatch_overhead: float


class CPUDevice:
    """The host processor of one node, viewed as an execution device.

    Capacity equals the core count so independent ops overlap, while each
    op's execution time assumes it uses a proportional slice of the chip
    (coarse but adequate: the paper's kernels are GPU-bound).
    """

    def __init__(self, env: Environment, model: CPUModel, node, numa_island: int = 0):
        self.env = env
        self.model = model
        self.node = node
        self.index = 0
        self.numa_island = numa_island
        self.device_type = "cpu"
        self.resource = Resource(env, capacity=model.cores, name=f"{node.name}/cpu:0")
        self.memory = MemoryPool(model.mem_capacity, name=f"{node.name}/host-mem")

    def time_for_cost(self, cost, op_type: str, double_precision: bool) -> float:
        seconds = self.model.dispatch_overhead
        per_op_flops = self.model.sustained_flops / self.model.cores
        compute = cost.flops / per_op_flops if cost.flops > 0 else 0.0
        memory = cost.mem_bytes / self.model.mem_bandwidth if cost.mem_bytes > 0 else 0.0
        host = cost.host_bytes / self.model.python_bytes_rate if cost.host_bytes > 0 else 0.0
        return seconds + max(compute, memory) + host

    def __repr__(self) -> str:
        return f"<CPUDevice {self.model.name} {self.node.name}/cpu:0>"
