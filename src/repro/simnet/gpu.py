"""GPU device models.

Each model carries vendor peak numbers plus *sustained-efficiency* factors
(values and their sources: ``repro.simnet.parameters``). The executor
converts a kernel :class:`~repro.core.kernels.registry.Cost` into
simulated seconds with :meth:`GPUDevice.time_for_cost`.

Per the paper's convention, "one K80 GPU" means one GK210 engine (half a
K80 board).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simnet.events import Environment
from repro.simnet.memory import MemoryPool
from repro.simnet.resources import BandwidthLink, Resource

__all__ = ["GPUModel", "GPUDevice"]


@dataclass(frozen=True)
class GPUModel:
    """Static description of a GPU part, built from
    :data:`repro.simnet.parameters.PARAMETERS` (units follow the field
    names). ``pcie_rate`` is the effective host<->device staging rate and
    the efficiencies are sustained fractions of peak by op class."""

    name: str
    peak_sp_flops: float
    peak_dp_flops: float
    mem_bandwidth: float
    mem_capacity: int
    pcie_rate: float
    launch_overhead: float
    matmul_efficiency: float
    fft_efficiency: float
    default_efficiency: float
    mem_efficiency: float

    def sustained_flops(self, op_type: str, double_precision: bool) -> float:
        peak = self.peak_dp_flops if double_precision else self.peak_sp_flops
        if op_type == "MatMul":
            return peak * self.matmul_efficiency
        if op_type in ("FFT", "IFFT"):
            return peak * self.fft_efficiency
        return peak * self.default_efficiency

    def sustained_bandwidth(self) -> float:
        return self.mem_bandwidth * self.mem_efficiency


class GPUDevice:
    """One physical GPU engine installed in a node."""

    def __init__(self, env: Environment, model: GPUModel, node, index: int,
                 numa_island: int = 0):
        self.env = env
        self.model = model
        self.node = node
        self.index = index
        self.numa_island = numa_island
        self.device_type = "gpu"
        # One compute stream: kernels on the same GPU serialize, as on real
        # hardware with a single default CUDA stream.
        self.resource = Resource(env, capacity=1, name=f"{node.name}/gpu:{index}")
        self.memory = MemoryPool(model.mem_capacity, name=f"{node.name}/gpu:{index}")
        # Host<->device staging path (PCIe + copy engine), fair-shared
        # between concurrent H2D/D2H traffic.
        self.pcie_link = BandwidthLink(env, model.pcie_rate,
                                       name=f"{node.name}/pcie:{index}")

    def time_for_cost(self, cost, op_type: str, double_precision: bool) -> float:
        """Simulated execution time of one kernel on this GPU."""
        seconds = self.model.launch_overhead
        compute = 0.0
        if cost.flops > 0:
            compute = cost.flops / self.model.sustained_flops(op_type, double_precision)
        memory = 0.0
        if cost.mem_bytes > 0:
            memory = cost.mem_bytes / self.model.sustained_bandwidth()
        return seconds + max(compute, memory)

    def __repr__(self) -> str:
        return f"<GPUDevice {self.model.name} {self.node.name}/gpu:{self.index}>"
