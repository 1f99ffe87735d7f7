"""Shared infrastructure for the HPC applications.

``build_cluster`` reproduces the paper's deployment path end to end: pick
a machine (Section V), ask the simulated Slurm for an allocation, resolve
it into a ClusterSpec with per-task GPU masks (Section III), and boot one
server per task.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

from repro.errors import InvalidArgumentError
from repro.runtime.clusterspec import ClusterSpec
from repro.runtime.server import Server
from repro.simnet.events import Environment
from repro.simnet.machines import (
    NODE_TYPES,
    instances_per_node,
    kebnekaise,
    localhost,
    tegner,
)
from repro.slurm.cluster_resolver import SlurmClusterResolver
from repro.slurm.scontrol import Scontrol
from repro.slurm.workload_manager import SlurmWorkloadManager

__all__ = [
    "ClusterHandle",
    "build_cluster",
    "session_config",
    "task_device",
    "SYSTEMS",
]


def task_device(job: str, index: int, device_type: str = "gpu",
                device_index: int = 0) -> str:
    """Fully-qualified device string for one cluster task's device."""
    return f"/job:{job}/task:{index}/device:{device_type}:{device_index}"


def session_config(shape_only: bool = False, optimize: Optional[bool] = None):
    """The apps' shared SessionConfig: shape-only switch plus the A/B
    knob forcing plan-time optimization and the executor fast path on or
    off together (``None`` keeps the defaults)."""
    from repro.core.session import SessionConfig

    config = SessionConfig(shape_only=shape_only)
    if optimize is not None:
        config.graph_optimization = optimize
        config.executor_fast_path = optimize
    return config

# system name -> (machine factory kwargs builder, node_type)
SYSTEMS = {
    "tegner-k420": (lambda env, n: tegner(env, k420_nodes=n), "tegner-k420"),
    "tegner-k80": (lambda env, n: tegner(env, k80_nodes=n), "tegner-k80"),
    "kebnekaise-k80": (lambda env, n: kebnekaise(env, k80_nodes=n), "kebnekaise-k80"),
    "kebnekaise-v100": (lambda env, n: kebnekaise(env, v100_nodes=n), "kebnekaise-v100"),
    "localhost": (lambda env, n: localhost(env, num_gpus=max(n, 1)), "localhost"),
}


@dataclass
class ClusterHandle:
    """A booted simulated cluster ready to run an application."""

    env: Environment
    machine: object
    system: str
    cluster_spec: ClusterSpec
    servers: dict[tuple[str, int], Server]
    resolver: SlurmClusterResolver
    slurm: SlurmWorkloadManager

    def server(self, job: str, index: int) -> Server:
        return self.servers[(job, index)]

    @property
    def filesystem(self):
        return self.machine.filesystem

    def gpu_model(self):
        return NODE_TYPES[self.system.replace("localhost", "localhost")]["gpu_model"]


def build_cluster(
    system: str,
    jobs: dict[str, int],
    protocol: str = "grpc+verbs",
    env: Optional[Environment] = None,
    gpu_memory_fraction: float = 1.0,
    tasks_per_node: Optional[int] = None,
) -> ClusterHandle:
    """Boot a simulated cluster for an application.

    Args:
        system: one of :data:`SYSTEMS` (paper Section V configurations).
        jobs: job name -> task count, in placement order. The first-named
            jobs land on the first nodes (the paper places parameter
            servers / reducers ahead of workers).
        protocol: TF server protocol ("grpc", "grpc+mpi", "grpc+verbs").
        tasks_per_node: override Table I's instance density (the STREAM
            benchmark places one task per node to measure the fabric).
    """
    if system not in SYSTEMS:
        raise InvalidArgumentError(
            f"Unknown system {system!r}; expected one of {sorted(SYSTEMS)}"
        )
    factory, node_type = SYSTEMS[system]
    total_tasks = sum(jobs.values())
    per_node = tasks_per_node or instances_per_node(node_type)
    num_nodes = -(-total_tasks // per_node)
    env = env or Environment()
    machine = factory(env, num_nodes)
    slurm = SlurmWorkloadManager(machine)
    allocation = slurm.submit(num_nodes=num_nodes, tasks_per_node=per_node,
                              ntasks=total_tasks)
    resolver = SlurmClusterResolver(
        jobs=jobs,
        environ=allocation.environment(),
        scontrol=Scontrol(slurm),
    )
    servers = resolver.create_servers(
        machine, protocol=protocol, gpu_memory_fraction=gpu_memory_fraction
    )
    return ClusterHandle(
        env=env,
        machine=machine,
        system=system,
        cluster_spec=resolver.cluster_spec(),
        servers=servers,
        resolver=resolver,
        slurm=slurm,
    )
