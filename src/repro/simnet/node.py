"""Compute-node topology.

A node couples a CPU, zero or more GPU engines, a NIC and NUMA islands.
The Kebnekaise topology (paper Fig. 9) places the two K80 boards on two
different NUMA islands while "I/O and network communication are only
connected to either one island" — traffic from the far island crosses the
inter-socket link, and all co-located TensorFlow instances share the one
NIC. Both effects are modelled as fair-share :class:`BandwidthLink`\\ s.
"""

from __future__ import annotations

from typing import Sequence

from repro.simnet.cpu import CPUDevice, CPUModel
from repro.simnet.events import Environment
from repro.simnet.gpu import GPUDevice, GPUModel
from repro.simnet.parameters import PARAMETERS
from repro.simnet.resources import BandwidthLink

__all__ = ["Node"]


class Node:
    """One compute node within a machine."""

    def __init__(
        self,
        env: Environment,
        name: str,
        machine,
        cpu_model: CPUModel,
        gpu_models: Sequence[GPUModel] = (),
        gpu_numa: Sequence[int] = (),
    ):
        self.env = env
        self.name = name
        self.machine = machine
        # NIC and other I/O hang off island 0 (paper Fig. 9).
        self.nic_numa = 0
        self.cpu = CPUDevice(env, cpu_model, node=self, numa_island=0)
        self.gpus = [
            GPUDevice(env, model, node=self, index=i, numa_island=island)
            for i, (model, island) in enumerate(zip(gpu_models, gpu_numa))
        ]
        # The node's HCA: all instances on the node share it (ingress and
        # egress are folded into one fair-share pipe — conservative, and the
        # paper's STREAM traffic is unidirectional anyway).
        self.nic_link = BandwidthLink(env, machine.fabric.effective_rate,
                                      name=f"{name}/nic")
        # Ethernet management port.
        self.eth_link = BandwidthLink(
            env, machine.ethernet.effective_rate, name=f"{name}/eth"
        )
        # QPI between the two sockets: GPU traffic from the far island to
        # the NIC/IO island crosses this.
        self.intersocket_link = BandwidthLink(
            env, PARAMETERS["qpi.rate"].value, name=f"{name}/qpi"
        )

    # -- device lookup ----------------------------------------------------------
    def device(self, device_type: str, index: int = 0):
        if device_type == "cpu":
            if index != 0:
                raise ValueError(f"{self.name} has a single cpu device")
            return self.cpu
        if device_type == "gpu":
            if not 0 <= index < len(self.gpus):
                raise ValueError(
                    f"{self.name} has {len(self.gpus)} GPUs; no gpu:{index}"
                )
            return self.gpus[index]
        raise ValueError(f"Unknown device type {device_type!r}")

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)

    def crosses_socket(self, device) -> bool:
        """True when traffic from ``device`` to the NIC crosses sockets."""
        return getattr(device, "numa_island", 0) != self.nic_numa

    def __repr__(self) -> str:
        gpus = ", ".join(g.model.name for g in self.gpus) or "no GPUs"
        return f"<Node {self.name}: {self.cpu.model.name}, {gpus}>"
