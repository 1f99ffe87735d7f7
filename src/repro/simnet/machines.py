"""Machine catalogs: the paper's two evaluation systems, and a localhost
built from one of their nodes.

The catalogs encode Section V and Table I of the paper:

========== ============ =========== ==================== =================
Machine    Node type    GPUs/node   TF instances/node    GPU exposed/inst.
========== ============ =========== ==================== =================
Tegner     K420         1 K420      1                    1 K420 (1 GB)
Tegner     K80          1 K80 board 2                    1 GK210 (12 GB)
Kebnekaise K80          2 K80 board 4                    1 GK210 (12 GB)
Kebnekaise V100         2 V100      2                    1 V100 (16 GB)
========== ============ =========== ==================== =================

:func:`localhost` backs every Session built without a cluster. It is a
Kebnekaise V100 node's parts with a free GPU count, so no part of it is
outside the paper's machines.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import InvalidArgumentError, NotFoundError
from repro.simnet.cpu import CPUModel
from repro.simnet.events import Environment
from repro.simnet.filesystem import SimFileSystem
from repro.simnet.gpu import GPUModel
from repro.simnet.network import Interconnect
from repro.simnet.node import Node
from repro.simnet.parameters import PARAMETERS, model

__all__ = [
    "Machine",
    "NODE_TYPES",
    "instances_per_node",
    "tegner",
    "kebnekaise",
    "localhost",
]

# Table I: TF instances per node, per node type.
NODE_TYPES = {"tegner-k420": 1, "tegner-k80": 2, "kebnekaise-k80": 4,
              "kebnekaise-v100": 2, "localhost": 1}


def instances_per_node(node_type: str) -> int:
    """How many TensorFlow instances the paper runs per node of this type."""
    try:
        return NODE_TYPES[node_type]
    except KeyError:
        raise InvalidArgumentError(f"Unknown node type {node_type!r}") from None


class Machine:
    """A simulated cluster: nodes, fabric, parallel filesystem, servers."""

    def __init__(
        self,
        env: Environment,
        name: str,
        fabric: Interconnect,
    ):
        self.env = env
        self.name = name
        self.fabric = fabric
        self.ethernet = model(Interconnect, "1GbE")
        self.filesystem = SimFileSystem(
            env, PARAMETERS[f"{name}.lustre_rate"].value,
            PARAMETERS[f"{name}.lustre_client_rate"].value,
            name=f"{name}/lustre",
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
        gpu_numa: Sequence[int] = (),
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

    # -- lifecycle -------------------------------------------------------------
    def release(self) -> None:
        """Let this machine die by reference count, with nothing left to run.

        Unlinks the edges that point back up the ownership tree (a
        node's machine, a device's node, a server's machine) and drops
        the calendar's leftover entries (a cancelled join timer, a
        superseded link wake-up), which name the environment back.
        The clock, the nodes and the address table stay as they are.
        Only for a machine and an environment nothing else will use:
        a local Session releases the ones it built itself, on close().
        """
        for server in self.address_table.values():
            server.machine = None
        for node in self.nodes.values():
            node.machine = None
            node.cpu.node = None
            for gpu in node.gpus:
                gpu.node = None
        self.env.clear()

    def __repr__(self) -> str:
        return f"<Machine {self.name}: {len(self.nodes)} nodes, {self.fabric.name}>"


def tegner(env: Environment, k420_nodes: int = 0, k80_nodes: int = 0) -> Machine:
    """PDC's Tegner: Haswell nodes, EDR InfiniBand, Ethernet-resolved gRPC."""
    # EDR carries no IP: "gRPC connection is resolved to communicate
    # through Ethernet" on Tegner (paper).
    machine = Machine(env, name="tegner",
                      fabric=model(Interconnect, "EDR InfiniBand"))
    cpu = model(CPUModel, "2xE5-2690v3")
    k420, k80 = model(GPUModel, "K420"), model(GPUModel, "K80-GK210")
    index = 1
    for _ in range(k420_nodes):
        machine.add_node(
            f"t01n{index:02d}",
            cpu_model=cpu,
            gpu_models=[k420],
            gpu_numa=[0],
            node_type="tegner-k420",
        )
        index += 1
    for _ in range(k80_nodes):
        # One K80 board = two GK210 engines behind one PCIe slot on socket 0.
        machine.add_node(
            f"t01n{index:02d}",
            cpu_model=cpu,
            gpu_models=[k80, k80],
            gpu_numa=[0, 0],
            node_type="tegner-k80",
        )
        index += 1
    return machine


def kebnekaise(env: Environment, k80_nodes: int = 0, v100_nodes: int = 0) -> Machine:
    """HPC2N's Kebnekaise: Broadwell nodes, FDR InfiniBand, NUMA-split GPUs."""
    # gRPC ~ MPI bandwidth => IPoIB over FDR.
    machine = Machine(env, name="kebnekaise",
                      fabric=model(Interconnect, "FDR InfiniBand"))
    cpu = model(CPUModel, "2xE5-2690v4")
    k80, v100 = model(GPUModel, "K80-GK210"), model(GPUModel, "V100")
    index = 1
    for _ in range(k80_nodes):
        # Fig. 9: two K80 boards on two NUMA islands; NIC + I/O on island 0.
        machine.add_node(
            f"b-cn{index:04d}",
            cpu_model=cpu,
            gpu_models=[k80] * 4,
            gpu_numa=[0, 0, 1, 1],
            node_type="kebnekaise-k80",
        )
        index += 1
    for _ in range(v100_nodes):
        machine.add_node(
            f"b-cn{index:04d}",
            cpu_model=cpu,
            gpu_models=[v100, v100],
            gpu_numa=[0, 1],
            node_type="kebnekaise-v100",
        )
        index += 1
    return machine


def localhost(env: Environment, num_gpus: int = 1) -> Machine:
    """The single-node machine behind a plain local session: one
    Kebnekaise V100 node's parts (two E5-2690v4 sockets, FDR InfiniBand,
    Kebnekaise's Lustre) with ``num_gpus`` 16 GB V100s.

    Every part is one a paper row runs on, so a local clock reads only
    entries the paper's machines read too. The machine carries
    Kebnekaise's name, which selects its Lustre entries; the node is
    ``localhost``, one TensorFlow instance (Table I's ``localhost`` row).
    """
    machine = Machine(env, name="kebnekaise",
                      fabric=model(Interconnect, "FDR InfiniBand"))
    machine.add_node(
        "localhost",
        cpu_model=model(CPUModel, "2xE5-2690v4"),
        gpu_models=[model(GPUModel, "V100")] * num_gpus,
        gpu_numa=[0] * num_gpus,
        node_type="localhost",
    )
    return machine
