"""GPU device models.

Each model carries vendor peak numbers plus *sustained-efficiency* factors
calibrated against the paper's measurements (see
``repro.perf.calibration`` for provenance). The executor converts a kernel
:class:`~repro.core.kernels.registry.Cost` into simulated seconds with
:meth:`GPUDevice.time_for_cost`.

Per the paper's convention, "one K80 GPU" means one GK210 engine (half a
K80 board).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simnet.events import Environment
from repro.simnet.memory import MemoryPool
from repro.simnet.resources import BandwidthLink, Resource

__all__ = ["GPUModel", "GPUDevice", "K420", "K80_GK210", "V100", "GENERIC_GPU"]


@dataclass(frozen=True)
class GPUModel:
    """Static description of a GPU part."""

    name: str
    peak_sp_flops: float  # single-precision peak, flop/s
    peak_dp_flops: float  # double-precision peak, flop/s
    mem_bandwidth: float  # device memory bandwidth, B/s
    mem_capacity: int  # device memory, bytes
    pcie_rate: float  # effective host<->device staging rate, B/s
    launch_overhead: float  # per-kernel launch latency, s
    # Sustained fractions of peak by op class.
    matmul_efficiency: float = 0.70
    fft_efficiency: float = 0.10
    default_efficiency: float = 0.50
    mem_efficiency: float = 0.75

    def sustained_flops(self, op_type: str, double_precision: bool) -> float:
        peak = self.peak_dp_flops if double_precision else self.peak_sp_flops
        if op_type == "MatMul":
            return peak * self.matmul_efficiency
        if op_type in ("FFT", "IFFT"):
            return peak * self.fft_efficiency
        return peak * self.default_efficiency

    def sustained_bandwidth(self) -> float:
        return self.mem_bandwidth * self.mem_efficiency


# Vendor numbers: NVIDIA datasheets for Quadro K420, Tesla K80 (per GK210
# engine at base clock), Tesla V100-PCIe. ``pcie_rate`` is the *effective*
# staging throughput observed by the paper's STREAM runs (Fig. 7): the
# K420 path saturates ≈1.3 GB/s and the Kebnekaise K80 path ≈2.3 GB/s.
K420 = GPUModel(
    name="K420",
    peak_sp_flops=300.0e9,
    peak_dp_flops=12.5e9,
    mem_bandwidth=29.0e9,
    mem_capacity=1 * 1024**3,
    pcie_rate=1.5e9,
    launch_overhead=18e-6,
)

K80_GK210 = GPUModel(
    name="K80-GK210",
    peak_sp_flops=2796.0e9,
    peak_dp_flops=932.0e9,
    mem_bandwidth=240.0e9,
    mem_capacity=12 * 1024**3,
    pcie_rate=2.4e9,
    launch_overhead=12e-6,
)

V100 = GPUModel(
    name="V100",
    peak_sp_flops=14000.0e9,
    peak_dp_flops=7000.0e9,
    mem_bandwidth=900.0e9,
    mem_capacity=16 * 1024**3,
    pcie_rate=10.0e9,
    launch_overhead=8e-6,
)

# A fast laptop-ish default for local sessions outside any machine catalog.
GENERIC_GPU = GPUModel(
    name="generic-gpu",
    peak_sp_flops=5000.0e9,
    peak_dp_flops=2500.0e9,
    mem_bandwidth=400.0e9,
    mem_capacity=8 * 1024**3,
    pcie_rate=8.0e9,
    launch_overhead=10e-6,
)


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
