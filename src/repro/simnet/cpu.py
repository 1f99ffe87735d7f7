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

__all__ = ["CPUModel", "CPUDevice", "HASWELL_E5_2690V3", "BROADWELL_E5_2690V4", "GENERIC_CPU"]


@dataclass(frozen=True)
class CPUModel:
    """Static description of a host processor configuration (per node)."""

    name: str
    cores: int
    sustained_flops: float  # aggregate usable flop/s for numpy-backed math
    mem_bandwidth: float  # sustained host memory bandwidth, B/s
    mem_capacity: int  # host RAM, bytes
    serialize_rate: float  # protobuf-style serialization throughput, B/s
    python_bytes_rate: float  # interpreter-bound slicing/merge throughput, B/s
    numpy_bytes_rate: float  # single vectorized NumPy op (e.g. +=), B/s
    dispatch_overhead: float  # per-op scheduling latency, s


# Tegner: dual E5-2690v3 (2x12 cores), 512 GB.
HASWELL_E5_2690V3 = CPUModel(
    name="2xE5-2690v3",
    cores=24,
    sustained_flops=350.0e9,
    mem_bandwidth=95.0e9,
    mem_capacity=512 * 1024**3,
    serialize_rate=1.4e9,
    python_bytes_rate=0.9e9,
    numpy_bytes_rate=4.0e9,
    dispatch_overhead=25e-6,
)

# Kebnekaise: dual E5-2690v4 (2x14 cores), 128 GB.
BROADWELL_E5_2690V4 = CPUModel(
    name="2xE5-2690v4",
    cores=28,
    sustained_flops=420.0e9,
    mem_bandwidth=110.0e9,
    mem_capacity=128 * 1024**3,
    serialize_rate=1.5e9,
    python_bytes_rate=0.9e9,
    numpy_bytes_rate=4.5e9,
    dispatch_overhead=25e-6,
)

GENERIC_CPU = CPUModel(
    name="generic-cpu",
    cores=8,
    sustained_flops=150.0e9,
    mem_bandwidth=50.0e9,
    mem_capacity=32 * 1024**3,
    serialize_rate=1.5e9,
    python_bytes_rate=1.0e9,
    numpy_bytes_rate=4.0e9,
    dispatch_overhead=10e-6,
)


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
