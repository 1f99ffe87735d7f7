"""Interconnect fabrics.

Port rates are theoretical link speeds; ``efficiency`` is the sustained
fraction achievable by a well-tuned zero-copy protocol (the paper reports
>50 % of the 12 GB/s EDR theoretical bandwidth for RDMA on host memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Interconnect", "EDR_INFINIBAND", "FDR_INFINIBAND", "GIGABIT_ETHERNET"]


@dataclass(frozen=True)
class Interconnect:
    """A network fabric technology."""

    name: str
    port_rate: float  # theoretical per-port rate, B/s
    latency: float  # one-way wire+switch latency, s
    efficiency: float  # sustained fraction of port_rate for native verbs
    # Sustained fraction for IP traffic (IPoIB); None where no IP rides
    # the fabric, so gRPC resolves over the management Ethernet.
    ip_efficiency: Optional[float] = None

    @property
    def effective_rate(self) -> float:
        return self.port_rate * self.efficiency


# Tegner: EDR InfiniBand (100 Gb/s ~ 12 GB/s, "theoretical bandwidth on
# Tegner is 12 GB/s" per the paper).
EDR_INFINIBAND = Interconnect(
    name="EDR InfiniBand",
    port_rate=12.0e9,
    latency=1.5e-6,
    efficiency=0.70,
)

# Kebnekaise: FDR InfiniBand (56 Gb/s ~ 6.8 GB/s). The low sustained
# efficiency reflects what the paper measured through TF's RDMA module on
# this fabric (STREAM saturates below 2.3 GB/s even from host memory
# staging paths) — consistent with an oversubscribed island topology.
FDR_INFINIBAND = Interconnect(
    name="FDR InfiniBand",
    port_rate=6.8e9,
    latency=1.9e-6,
    efficiency=0.33,
    ip_efficiency=0.16,
)

# Management Ethernet (what Tegner's gRPC connections resolve to).
GIGABIT_ETHERNET = Interconnect(
    name="1GbE",
    port_rate=0.125e9,
    latency=40e-6,
    efficiency=0.95,
)
