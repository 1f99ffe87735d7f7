"""Interconnect fabrics.

Port rates are theoretical link speeds; ``efficiency`` is the sustained
fraction achievable by a well-tuned zero-copy protocol (the paper reports
>50 % of the 12 GB/s EDR theoretical bandwidth for RDMA on host memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Interconnect"]


@dataclass(frozen=True)
class Interconnect:
    """A network fabric technology, built from
    :data:`repro.simnet.parameters.PARAMETERS` (units follow the field
    names)."""

    name: str
    port_rate: float
    latency: float  # one-way wire+switch
    efficiency: float
    # None where no IP rides the fabric, so gRPC resolves over the
    # management Ethernet.
    ip_efficiency: Optional[float] = None

    @property
    def effective_rate(self) -> float:
        return self.port_rate * self.efficiency
