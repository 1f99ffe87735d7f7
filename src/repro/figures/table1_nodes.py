"""Table I — TensorFlow instances per node, and the Fig. 9 node topology.

Regenerates the paper's deployment table from the machine catalogs and
the Slurm resolver (the numbers are *derived* from the models: GPU count
per node, memory per engine, one engine per instance), and renders the
Kebnekaise node topology the paper uses to explain its scaling anomaly.
"""

from __future__ import annotations

from repro.perf.reporting import format_table
from repro.simnet.events import Environment
from repro.simnet.machines import instances_per_node, kebnekaise, tegner
from repro.slurm.cluster_resolver import SlurmClusterResolver
from repro.slurm.scontrol import Scontrol
from repro.slurm.workload_manager import SlurmWorkloadManager

__all__ = ["run_table1", "format_table1", "topology_diagram"]

_LABELS = {
    "tegner-k420": "Tegner K420",
    "tegner-k80": "Tegner K80",
    "kebnekaise-k80": "Kebnekaise K80",
    "kebnekaise-v100": "Kebnekaise V100",
}

_FACTORIES = {
    "tegner-k420": lambda env: tegner(env, k420_nodes=1),
    "tegner-k80": lambda env: tegner(env, k80_nodes=1),
    "kebnekaise-k80": lambda env: kebnekaise(env, k80_nodes=1),
    "kebnekaise-v100": lambda env: kebnekaise(env, v100_nodes=1),
}


def run_table1() -> list[dict]:
    """Derive Table I per node type by resolving a 1-node allocation."""
    rows = []
    for node_type, label in _LABELS.items():
        env = Environment()
        machine = _FACTORIES[node_type](env)
        node = next(iter(machine.nodes.values()))
        instances = instances_per_node(node_type)
        slurm = SlurmWorkloadManager(machine)
        job = slurm.submit(num_nodes=1, tasks_per_node=instances)
        resolver = SlurmClusterResolver(
            jobs={"worker": instances},
            environ=job.environment(),
            scontrol=Scontrol(slurm),
        )
        masks = resolver.gpu_allocation()
        gpus_per_instance = len(masks[("worker", 0)])
        mem = node.gpus[0].model.mem_capacity // 1024**3
        rows.append({
            "node_type": label,
            "gpu_memory_gb": mem,
            "gpus_per_node": node.num_gpus,
            "instances": instances,
            "gpus_per_instance": gpus_per_instance,
        })
        machine.release()  # read off: let it die by reference count
    return rows


def format_table1(rows: list[dict]) -> str:
    headers = ["Type of Node", "GPU Memory", "GPUs/node",
               "No. processes per node", "GPUs exposed/process"]
    table_rows = [
        [
            r["node_type"],
            f"{r['gpu_memory_gb']}GB",
            r["gpus_per_node"],
            r["instances"],
            r["gpus_per_instance"],
        ]
        for r in rows
    ]
    return format_table(headers, table_rows,
                        title="Table I — TF instances per node type")


def topology_diagram() -> str:
    """ASCII rendering of a Kebnekaise K80 node (paper Fig. 9)."""
    env = Environment()
    machine = kebnekaise(env, k80_nodes=1)
    node = machine.node("b-cn0001")
    island = {0: [], 1: []}
    for gpu in node.gpus:
        island[gpu.numa_island].append(f"GK210({gpu.index})")
    lines = [
        "Kebnekaise K80 node (paper Fig. 9)",
        "",
        "  NUMA island 0                NUMA island 1",
        "  +--------------------+       +--------------------+",
        f"  | {island[0][0]:<8} {island[0][1]:<8} |  QPI  | {island[1][0]:<8} {island[1][1]:<8} |",
        "  |   (PCI-E)          |<----->|   (PCI-E)          |",
        f"  | NIC: {node.machine.fabric.name:<13} |       |                    |",
        "  | + other I/O        |       |                    |",
        "  +--------------------+       +--------------------+",
        "",
        "  All I/O and network traffic funnels through island 0; GPUs on",
        "  island 1 cross the inter-socket link, and four co-located TF",
        "  instances share the single HCA.",
    ]
    return "\n".join(lines)


def main() -> None:
    import sys

    print(format_table1(run_table1()))
    if "--topology" in sys.argv:
        print()
        print(topology_diagram())


if __name__ == "__main__":
    main()
