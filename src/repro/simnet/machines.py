"""Machine catalogs: the paper's two evaluation systems plus a localhost.

The catalogs encode Section V and Table I of the paper:

========== ============ =========== ==================== =================
Machine    Node type    GPUs/node   TF instances/node    GPU exposed/inst.
========== ============ =========== ==================== =================
Tegner     K420         1 K420      1                    1 K420 (1 GB)
Tegner     K80          1 K80 board 2                    1 GK210 (12 GB)
Kebnekaise K80          2 K80 board 4                    1 GK210 (12 GB)
Kebnekaise V100         2 V100      2                    1 V100 (16 GB)
========== ============ =========== ==================== =================
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import InvalidArgumentError, NotFoundError
from repro.simnet.cpu import (
    BROADWELL_E5_2690V4,
    GENERIC_CPU,
    HASWELL_E5_2690V3,
    CPUModel,
)
from repro.simnet.events import Environment
from repro.simnet.filesystem import SimFileSystem
from repro.simnet.gpu import GENERIC_GPU, K420, K80_GK210, V100, GPUModel
from repro.simnet.network import (
    EDR_INFINIBAND,
    FDR_INFINIBAND,
    GIGABIT_ETHERNET,
    Interconnect,
)
from repro.simnet.node import Node

__all__ = [
    "Machine",
    "NODE_TYPES",
    "instances_per_node",
    "tegner",
    "kebnekaise",
    "localhost",
]

# Table I: TF instances per node, per node type.
NODE_TYPES = {
    "tegner-k420": {"instances": 1, "gpus": 1, "gpu_model": K420},
    "tegner-k80": {"instances": 2, "gpus": 2, "gpu_model": K80_GK210},
    "kebnekaise-k80": {"instances": 4, "gpus": 4, "gpu_model": K80_GK210},
    "kebnekaise-v100": {"instances": 2, "gpus": 2, "gpu_model": V100},
    "localhost": {"instances": 1, "gpus": 1, "gpu_model": GENERIC_GPU},
}


def instances_per_node(node_type: str) -> int:
    """How many TensorFlow instances the paper runs per node of this type."""
    try:
        return NODE_TYPES[node_type]["instances"]
    except KeyError:
        raise InvalidArgumentError(f"Unknown node type {node_type!r}") from None


class Machine:
    """A simulated cluster: nodes, fabric, parallel filesystem, servers."""

    def __init__(
        self,
        env: Environment,
        name: str,
        fabric: Interconnect,
        lustre_rate: float = 16.0e9,
        lustre_client_rate: float = 1.0e9,
        grpc_over_ethernet: bool = False,
    ):
        self.env = env
        self.name = name
        self.fabric = fabric
        # Every machine's 1GbE, read when the machine is built, not when
        # this module was imported: a model change to it reaches them all.
        self.ethernet = GIGABIT_ETHERNET
        self.grpc_over_ethernet = grpc_over_ethernet
        self.filesystem = SimFileSystem(
            env, lustre_rate, name=f"{name}/lustre",
            client_rate=lustre_client_rate,
        )
        self.nodes: dict[str, Node] = {}
        # host:port -> Server (populated by repro.runtime.server.Server).
        self.address_table: dict[str, object] = {}
        # Set by FaultInjector.install(); transports and the executor
        # consult it when present.
        self.faults = None

    # -- construction ----------------------------------------------------------
    def add_node(
        self,
        name: str,
        cpu_model: CPUModel,
        gpu_models: Sequence[GPUModel] = (),
        gpu_numa: Optional[Sequence[int]] = None,
        nic_numa: int = 0,
        node_type: str = "localhost",
    ) -> Node:
        if name in self.nodes:
            raise InvalidArgumentError(f"Duplicate node name {name!r}")
        node = Node(
            self.env,
            name,
            machine=self,
            cpu_model=cpu_model,
            gpu_models=gpu_models,
            gpu_numa=gpu_numa,
            nic_numa=nic_numa,
        )
        node.node_type = node_type
        self.nodes[name] = node
        return node

    # -- lookup ----------------------------------------------------------------
    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise NotFoundError(f"No node named {name!r} on {self.name}") from None

    def node_names(self) -> list[str]:
        return sorted(self.nodes)

    def register_server(self, address: str, server) -> None:
        if address in self.address_table:
            raise InvalidArgumentError(f"Address {address!r} already bound")
        self.address_table[address] = server

    def resolve(self, address: str):
        try:
            return self.address_table[address]
        except KeyError:
            raise NotFoundError(
                f"No server listening on {address!r} (known: "
                f"{sorted(self.address_table)})"
            ) from None

    def __repr__(self) -> str:
        return f"<Machine {self.name}: {len(self.nodes)} nodes, {self.fabric.name}>"


def tegner(env: Environment, k420_nodes: int = 0, k80_nodes: int = 0) -> Machine:
    """PDC's Tegner: Haswell nodes, EDR InfiniBand, Ethernet-resolved gRPC."""
    machine = Machine(
        env,
        name="tegner",
        fabric=EDR_INFINIBAND,
        grpc_over_ethernet=True,  # paper: "gRPC connection is resolved to
        # communicate through Ethernet" on Tegner
        lustre_rate=20.0e9,
        lustre_client_rate=1.1e9,
    )
    index = 1
    for _ in range(k420_nodes):
        machine.add_node(
            f"t01n{index:02d}",
            cpu_model=HASWELL_E5_2690V3,
            gpu_models=[K420],
            gpu_numa=[0],
            nic_numa=0,
            node_type="tegner-k420",
        )
        index += 1
    for _ in range(k80_nodes):
        # One K80 board = two GK210 engines behind one PCIe slot on socket 0.
        machine.add_node(
            f"t01n{index:02d}",
            cpu_model=HASWELL_E5_2690V3,
            gpu_models=[K80_GK210, K80_GK210],
            gpu_numa=[0, 0],
            nic_numa=0,
            node_type="tegner-k80",
        )
        index += 1
    return machine


def kebnekaise(env: Environment, k80_nodes: int = 0, v100_nodes: int = 0) -> Machine:
    """HPC2N's Kebnekaise: Broadwell nodes, FDR InfiniBand, NUMA-split GPUs."""
    machine = Machine(
        env,
        name="kebnekaise",
        fabric=FDR_INFINIBAND,
        grpc_over_ethernet=False,  # gRPC ~ MPI bandwidth => IPoIB
        lustre_rate=16.0e9,
        lustre_client_rate=1.0e9,
    )
    index = 1
    for _ in range(k80_nodes):
        # Fig. 9: two K80 boards on two NUMA islands; NIC + I/O on island 0.
        machine.add_node(
            f"b-cn{index:04d}",
            cpu_model=BROADWELL_E5_2690V4,
            gpu_models=[K80_GK210] * 4,
            gpu_numa=[0, 0, 1, 1],
            nic_numa=0,
            node_type="kebnekaise-k80",
        )
        index += 1
    for _ in range(v100_nodes):
        machine.add_node(
            f"b-cn{index:04d}",
            cpu_model=BROADWELL_E5_2690V4,
            gpu_models=[V100, V100],
            gpu_numa=[0, 1],
            nic_numa=0,
            node_type="kebnekaise-v100",
        )
        index += 1
    return machine


def localhost(env: Environment, num_gpus: int = 1,
              gpu_model: GPUModel = GENERIC_GPU,
              cpu_model: CPUModel = GENERIC_CPU) -> Machine:
    """A single-node machine backing plain local sessions."""
    machine = Machine(
        env,
        name="localhost",
        fabric=GIGABIT_ETHERNET,
        lustre_rate=2.0e9,
        lustre_client_rate=2.0e9,
    )
    machine.add_node(
        "localhost",
        cpu_model=cpu_model,
        gpu_models=[gpu_model] * num_gpus,
        gpu_numa=[0] * num_gpus,
        nic_numa=0,
        node_type="localhost",
    )
    return machine
