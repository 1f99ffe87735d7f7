"""TensorFlow servers (tasks) on simulated nodes.

A :class:`Server` is one task of one job in a cluster. It binds to an
address on a node of the machine, exposes a subset of the node's GPUs
(``CUDA_VISIBLE_DEVICES`` semantics — Table I runs up to four instances
per node, one GPU engine each), and owns the task's
:class:`~repro.core.kernels.registry.ResourceManager`, so variables and
queues placed on the task persist across sessions.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional, Sequence

from repro.core.kernels.registry import ResourceManager
from repro.core.placement import canonical_device
from repro.errors import InvalidArgumentError, NotFoundError
from repro.runtime.clusterspec import ClusterSpec
from repro.simnet.events import Environment
from repro.simnet.machines import Machine
from repro.simnet.resources import Resource
from repro.simnet.transports import SERVER_PROTOCOLS, data_protocol

__all__ = ["Server", "TaskRuntime", "ServerConfig"]


@dataclass
class ServerConfig:
    """Per-server runtime configuration.

    ``visible_gpus`` mirrors CUDA_VISIBLE_DEVICES: physical GPU indices on
    the node this server may use, renumbered from zero inside the task.
    ``gpu_memory_fraction`` caps this task's allocations on shared GPUs —
    "if more than one server are using one GPU, we need to ensure that the
    two tasks share the GPU memory".
    """

    visible_gpus: Optional[Sequence[int]] = None
    gpu_memory_fraction: float = 1.0
    allow_soft_placement: bool = True


class TaskRuntime:
    """Execution state of one task: its devices, resources and GIL."""

    def __init__(
        self,
        env: Environment,
        node,
        job_name: str,
        task_index: int,
        config: ServerConfig,
    ):
        self.env = env
        self.node = node
        self.job_name = job_name
        self.task_index = task_index
        self.config = config
        self.resources = ResourceManager(name=f"{job_name}/{task_index}")
        # One Python process per task: host-side phases serialize here
        # (the GIL limitation the paper hits with QueueRunners).
        self.gil = Resource(env, capacity=1, name=f"{job_name}:{task_index}/gil")
        visible = (
            list(config.visible_gpus)
            if config.visible_gpus is not None
            else list(range(node.num_gpus))
        )
        for phys in visible:
            if not 0 <= phys < node.num_gpus:
                raise InvalidArgumentError(
                    f"visible_gpus={visible}: node {node.name} has "
                    f"{node.num_gpus} GPUs"
                )
        # Canonical task-local device name -> simulated device object.
        self._devices = {
            canonical_device(job_name, task_index, "cpu", 0): node.cpu,
        }
        # Per-task memory pools: the task's allocations on a GPU are capped
        # at gpu_memory_fraction of the physical capacity, so co-located
        # instances can share an engine safely (as TF's per-process
        # gpu_options do). The host pool is shared node-wide.
        from repro.simnet.memory import MemoryPool

        self.memory_pools = {
            canonical_device(job_name, task_index, "cpu", 0): node.cpu.memory,
        }
        for local_index, phys in enumerate(visible):
            name = canonical_device(job_name, task_index, "gpu", local_index)
            gpu = node.gpus[phys]
            self._devices[name] = gpu
            capacity = int(gpu.model.mem_capacity * config.gpu_memory_fraction)
            self.memory_pools[name] = MemoryPool(
                capacity, name=f"{name}@{node.name}/gpu:{phys}"
            )

    # -- device queries ---------------------------------------------------------
    @property
    def device_names(self) -> list[str]:
        return sorted(self._devices)

    def device_counts(self) -> dict[str, int]:
        gpus = sum(1 for n in self._devices if "/device:gpu:" in n)
        return {"cpu": 1, "gpu": gpus}

    def device(self, canonical_name: str):
        try:
            return self._devices[canonical_name]
        except KeyError:
            raise NotFoundError(
                f"Task /job:{self.job_name}/task:{self.task_index} has no "
                f"device {canonical_name!r} (has: {self.device_names})"
            ) from None

    def __repr__(self) -> str:
        return (
            f"<TaskRuntime /job:{self.job_name}/task:{self.task_index} on "
            f"{self.node.name} ({len(self._devices)} devices)>"
        )


class Server:
    """An in-process TensorFlow server bound to one cluster task."""

    def __init__(
        self,
        cluster: ClusterSpec | dict,
        job_name: str,
        task_index: int,
        machine: Machine,
        protocol: str = "grpc+verbs",
        config: Optional[ServerConfig] = None,
        node_name: Optional[str] = None,
    ):
        if protocol not in SERVER_PROTOCOLS:
            raise InvalidArgumentError(
                f"Unknown protocol {protocol!r}; expected one of {SERVER_PROTOCOLS}"
            )
        self.cluster_spec = ClusterSpec(cluster)
        self.job_name = job_name
        self.task_index = task_index
        self.machine = machine
        self.protocol = protocol
        self.config = config or ServerConfig()
        self.address = self.cluster_spec.task_address(job_name, task_index)
        host = node_name or self.address.rsplit(":", 1)[0]
        node = machine.node(host)
        self.runtime = TaskRuntime(
            machine.env, node, job_name, task_index, self.config
        )
        machine.register_server(self.address, self)

    @property
    def env(self) -> Environment:
        # Read off the runtime: a released machine (Machine.release)
        # leaves ``machine`` None.
        return self.runtime.env

    @property
    def target(self) -> str:
        """Session target string for this server."""
        return f"grpc://{self.address}"

    @property
    def data_protocol(self) -> str:
        """Bulk tensor protocol implied by the server protocol string."""
        return data_protocol(self.protocol)

    def __repr__(self) -> str:
        return (
            f"<Server /job:{self.job_name}/task:{self.task_index} "
            f"@ {self.address} ({self.protocol})>"
        )
