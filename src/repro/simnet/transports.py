"""Tensor transport models: gRPC, MPI and InfiniBand-verbs RDMA.

The three protocols differ exactly where the paper says they do
(Section VI-A):

* **RDMA (verbs)** — zero-copy pipelined: the GPU staging hop, NIC hops
  and (if needed) inter-socket hop are occupied *concurrently*; throughput
  is set by the slowest hop. Host-memory tensors on Tegner therefore reach
  >6 GB/s (>50 % of EDR's 12 GB/s); GPU tensors saturate at the PCIe
  staging rate (≈1.3 GB/s on K420, ≈2.3 GB/s on Kebnekaise's K80s).
* **MPI** — the TF MPI module's default path: tensors are copied off the
  GPU and serialized to host memory *before* transfer (no GPUDirect), so
  the phases add up store-and-forward style and throughput plateaus in the
  hundreds of MB/s.
* **gRPC** — like MPI but with protobuf framing, and the connection
  resolves over whatever network the hostname maps to: management Ethernet
  on Tegner (hence the paper's "lowest bandwidth"), IPoIB on Kebnekaise
  (hence "similar bandwidth to that of MPI").
"""

from __future__ import annotations

from typing import Any, Generator, Iterator

from repro.errors import InvalidArgumentError
from repro.simnet.events import AllOf, Environment, Event
from repro.simnet.parameters import PARAMETERS

__all__ = [
    "DATA_PROTOCOLS",
    "SERVER_PROTOCOLS",
    "data_protocol",
    "transfer",
    "protocol_latency",
]

# Server-level protocol strings follow TF's naming.
SERVER_PROTOCOLS = ("grpc", "grpc+mpi", "grpc+verbs")
DATA_PROTOCOLS = ("grpc", "mpi", "rdma")


def data_protocol(server_protocol: str) -> str:
    """Map a TF server protocol to the bulk-data protocol it uses."""
    if server_protocol not in SERVER_PROTOCOLS:
        raise InvalidArgumentError(
            f"Unknown server protocol {server_protocol!r}; "
            f"expected one of {SERVER_PROTOCOLS}"
        )
    return {"grpc": "grpc", "grpc+mpi": "mpi", "grpc+verbs": "rdma"}[server_protocol]


# Each data protocol's per-message overhead (handshakes, rendezvous,
# framing): its table key.
_LATENCY_KEYS = {protocol: f"{protocol}.latency" for protocol in DATA_PROTOCOLS}


def protocol_latency(protocol: str) -> float:
    try:
        key = _LATENCY_KEYS[protocol]
    except KeyError:
        raise InvalidArgumentError(f"Unknown protocol {protocol!r}") from None
    return PARAMETERS[key].value


def _is_gpu(device) -> bool:
    return getattr(device, "device_type", "cpu") == "gpu"


def _same_node(a, b) -> bool:
    return a.node is b.node


def transfer(src_device, dst_device, nbytes: int,
             protocol: str = "rdma") -> Generator[Event, Any, None]:
    """Generator moving ``nbytes`` from ``src_device`` to ``dst_device``.

    Drives the appropriate links of the simulated machine; completes when
    the last byte lands. Within a node the protocol is irrelevant (TF uses
    direct DMA locally); across nodes the protocol chooses the path.
    """
    if protocol not in DATA_PROTOCOLS:
        raise InvalidArgumentError(
            f"Unknown data protocol {protocol!r}; expected one of {DATA_PROTOCOLS}"
        )
    if nbytes < 0:
        raise InvalidArgumentError(f"negative transfer size: {nbytes}")
    env: Environment = src_device.env
    if src_device is dst_device or nbytes == 0:
        return
    if _same_node(src_device, dst_device):
        yield from _local_transfer(env, src_device, dst_device, nbytes)
        return
    # Inter-node messages pass through the machine's fault injector (if
    # one is installed): drops raise UnavailableError on the sender,
    # degraded links charge extra latency before the wire.
    faults = getattr(src_device.node.machine, "faults", None)
    if faults is not None:
        extra = faults.on_message(src_device.node, dst_device.node, nbytes,
                                  protocol)
        if extra > 0.0:
            yield env.timeout(extra)
    if protocol == "rdma":
        yield from _rdma_transfer(env, src_device, dst_device, nbytes)
    elif protocol == "mpi":
        yield from _staged_transfer(env, src_device, dst_device, nbytes,
                                    serialize_derate=1.0, latency_key="mpi",
                                    use_ip=False)
    else:
        derate = PARAMETERS["grpc.serialize_derate"].value
        yield from _staged_transfer(env, src_device, dst_device, nbytes,
                                    serialize_derate=derate,
                                    latency_key="grpc", use_ip=True)


def _all_hops(env: Environment, events: list):
    """Wait-all over concurrent hops, skipping the join for one hop."""
    return events[0] if len(events) == 1 else AllOf(env, events)


def _local_transfer(env: Environment, src, dst, nbytes: int) -> Iterator:
    """Same-node movement: PCIe staging at each GPU end. A node has one
    CPU device, so one end at least is a GPU."""
    yield _all_hops(env, [device.pcie_link.transfer(nbytes)
                          for device in (src, dst) if _is_gpu(device)])


def _socket_hop(node, device, nbytes: int):
    """Inter-socket transfer event when the device sits on the far island."""
    if node.crosses_socket(device):
        return node.intersocket_link.transfer(nbytes)
    return None


def _rdma_transfer(env: Environment, src, dst, nbytes: int) -> Iterator:
    """Pipelined verbs path: all hops occupied concurrently."""
    src_node, dst_node = src.node, dst.node
    fabric_latency = src_node.machine.fabric.latency
    yield env.timeout(protocol_latency("rdma") + fabric_latency)
    events = [
        src_node.nic_link.transfer(nbytes),
        dst_node.nic_link.transfer(nbytes),
    ]
    # Without GPUDirect RDMA (not supported on either platform, per the
    # paper) GPU tensors stage through pinned host memory at PCIe rate.
    if _is_gpu(src):
        events.append(src.pcie_link.transfer(nbytes))
        hop = _socket_hop(src_node, src, nbytes)
        if hop is not None:
            events.append(hop)
    if _is_gpu(dst):
        events.append(dst.pcie_link.transfer(nbytes))
        hop = _socket_hop(dst_node, dst, nbytes)
        if hop is not None:
            events.append(hop)
    yield AllOf(env, events)


def _staged_transfer(env: Environment, src, dst, nbytes: int,
                     serialize_derate: float, latency_key: str,
                     use_ip: bool) -> Iterator:
    """Store-and-forward path: D2H, serialize, send, deserialize, H2D."""
    src_node, dst_node = src.node, dst.node
    machine = src_node.machine
    yield env.timeout(protocol_latency(latency_key) + machine.fabric.latency)
    # Phase 1: copy the tensor off the device into host memory.
    if _is_gpu(src):
        events = [src.pcie_link.transfer(nbytes)]
        hop = _socket_hop(src_node, src, nbytes)
        if hop is not None:
            events.append(hop)
        yield _all_hops(env, events)
    # Phase 2: serialize into the wire format on the host CPU.
    serialize_rate = src_node.cpu.model.serialize_rate * serialize_derate
    yield env.timeout(nbytes / serialize_rate)
    # Phase 3: the wire. gRPC rides whatever the hostname resolves to:
    # the fabric where IP rides it (IPoIB), else the management Ethernet.
    if use_ip and machine.fabric.ip_efficiency is None:
        yield AllOf(env, [
            src_node.eth_link.transfer(nbytes),
            dst_node.eth_link.transfer(nbytes),
        ])
    else:
        rate_scale = 1.0
        if use_ip:
            # IPoIB: same NIC, lower sustained rate. Occupancy is scaled so
            # the fair-share link yields the IP rate for this flow.
            fabric = machine.fabric
            rate_scale = fabric.effective_rate / (fabric.port_rate
                                                  * fabric.ip_efficiency)
        scaled = nbytes * rate_scale
        yield AllOf(env, [
            src_node.nic_link.transfer(scaled),
            dst_node.nic_link.transfer(scaled),
        ])
    # Phase 4: deserialize on the receiving host.
    deserialize_rate = dst_node.cpu.model.serialize_rate * serialize_derate
    yield env.timeout(nbytes / deserialize_rate)
    # Phase 5: copy up to the destination device.
    if _is_gpu(dst):
        events = [dst.pcie_link.transfer(nbytes)]
        hop = _socket_hop(dst_node, dst, nbytes)
        if hop is not None:
            events.append(hop)
        yield _all_hops(env, events)
