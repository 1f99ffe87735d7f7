"""The model's parameters: every constant the simulated clock reads.

:data:`PARAMETERS` maps ``part.field`` to a :class:`Parameter`. A part is
a hardware record's ``name`` (``K420``, ``2xE5-2690v3``, ``1GbE``, ...),
a protocol (``rdma``, ``mpi``, ``grpc``), a machine's Lustre
(``tegner``, ...) or a mechanism (``qpi``, ``collective``, ``fft``,
``matmul``, ``queue``).
:func:`model` builds the hardware records from the table when a machine
is built; every other entry is read where it is used. So a change to an
entry (a plant, a fit, a scaling) reaches every machine built after it.

A unit is not stored: it follows from the last word of the field name
(:data:`UNITS`). A source says where the value comes from:

* ``vendor``: a datasheet or system specification;
* ``paper:<row>``: a number the paper states (a ``PAPER_TARGETS`` key);
* ``fitted:<row>``: set by hand against that paper row, which it moves;
* ``unvalidated``: the model needs a value that nothing checks.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, NamedTuple, TypeVar

from repro.errors import NotFoundError

__all__ = ["Parameter", "PARAMETERS", "UNITS", "model", "unit"]


class Parameter(NamedTuple):
    value: float
    source: str


# The unit of a field, by the last word of its name.
UNITS = {"rate": "B/s", "bandwidth": "B/s", "flops": "flop/s",
         "latency": "s", "overhead": "s", "capacity": "B", "bytes": "B",
         "efficiency": "1", "derate": "1", "slowdown": "1", "speedup": "1",
         "scale": "1", "cores": "1"}

_P = Parameter
VENDOR, UNVALIDATED = "vendor", "unvalidated"

PARAMETERS: dict[str, Parameter] = {
    # ---- GPUs: NVIDIA datasheets (K80: one GK210 engine at base clock) --
    "K420.peak_sp_flops": _P(300.0e9, VENDOR),
    "K420.peak_dp_flops": _P(12.5e9, VENDOR),
    "K420.mem_bandwidth": _P(29.0e9, VENDOR),
    "K420.mem_capacity": _P(1 * 1024**3, VENDOR),
    "K420.pcie_rate": _P(1.5e9, "fitted:stream/tegner-gpu/rdma/128MB"),
    "K420.launch_overhead": _P(18e-6, UNVALIDATED),
    "K420.matmul_efficiency": _P(0.70, UNVALIDATED),
    "K420.fft_efficiency": _P(0.10, UNVALIDATED),
    "K420.default_efficiency": _P(0.50, UNVALIDATED),
    "K420.mem_efficiency": _P(0.75, UNVALIDATED),
    "K80-GK210.peak_sp_flops": _P(2796.0e9, VENDOR),
    "K80-GK210.peak_dp_flops": _P(932.0e9, VENDOR),
    "K80-GK210.mem_bandwidth": _P(240.0e9, VENDOR),
    "K80-GK210.mem_capacity": _P(12 * 1024**3, VENDOR),
    "K80-GK210.pcie_rate": _P(2.4e9, "fitted:stream/kebnekaise-gpu/rdma/128MB"),
    "K80-GK210.launch_overhead": _P(12e-6, UNVALIDATED),
    "K80-GK210.matmul_efficiency": _P(0.70, UNVALIDATED),
    "K80-GK210.fft_efficiency": _P(0.10, UNVALIDATED),
    "K80-GK210.default_efficiency": _P(0.50, UNVALIDATED),
    "K80-GK210.mem_efficiency": _P(0.75, UNVALIDATED),
    "V100.peak_sp_flops": _P(14000.0e9, VENDOR),
    "V100.peak_dp_flops": _P(7000.0e9, VENDOR),
    "V100.mem_bandwidth": _P(900.0e9, VENDOR),
    "V100.mem_capacity": _P(16 * 1024**3, VENDOR),
    "V100.pcie_rate": _P(10.0e9, UNVALIDATED),
    "V100.launch_overhead": _P(8e-6, UNVALIDATED),
    "V100.matmul_efficiency": _P(0.70, UNVALIDATED),
    "V100.fft_efficiency": _P(0.10, UNVALIDATED),
    "V100.default_efficiency": _P(0.50, UNVALIDATED),
    "V100.mem_efficiency": _P(0.75, UNVALIDATED),
    # ---- Host CPUs, per node: Tegner's dual E5-2690v3 (2x12 cores,
    # 512 GB), Kebnekaise's dual E5-2690v4 (2x14 cores, 128 GB) ----------
    "2xE5-2690v3.cores": _P(24, VENDOR),
    "2xE5-2690v3.sustained_flops": _P(350.0e9, UNVALIDATED),
    "2xE5-2690v3.mem_bandwidth": _P(95.0e9, UNVALIDATED),
    "2xE5-2690v3.mem_capacity": _P(512 * 1024**3, VENDOR),
    "2xE5-2690v3.serialize_rate": _P(1.4e9, "fitted:stream/tegner-gpu/mpi/128MB"),
    "2xE5-2690v3.python_bytes_rate": _P(0.9e9, UNVALIDATED),
    "2xE5-2690v3.numpy_bytes_rate": _P(4.0e9, UNVALIDATED),
    "2xE5-2690v3.dispatch_overhead": _P(25e-6, UNVALIDATED),
    "2xE5-2690v4.cores": _P(28, VENDOR),
    "2xE5-2690v4.sustained_flops": _P(420.0e9, UNVALIDATED),
    "2xE5-2690v4.mem_bandwidth": _P(110.0e9, UNVALIDATED),
    "2xE5-2690v4.mem_capacity": _P(128 * 1024**3, VENDOR),
    "2xE5-2690v4.serialize_rate": _P(
        1.5e9, "fitted:stream/kebnekaise-gpu/mpi/128MB"),
    "2xE5-2690v4.python_bytes_rate": _P(0.9e9, UNVALIDATED),
    "2xE5-2690v4.numpy_bytes_rate": _P(4.5e9, UNVALIDATED),
    "2xE5-2690v4.dispatch_overhead": _P(25e-6, UNVALIDATED),
    # ---- Fabrics: theoretical port rates; efficiency is the sustained
    # fraction for native verbs, ip_efficiency for IPoIB ------------------
    "EDR InfiniBand.port_rate": _P(12.0e9, "paper:stream/tegner/theoretical"),
    "EDR InfiniBand.latency": _P(1.5e-6, UNVALIDATED),
    "EDR InfiniBand.efficiency": _P(0.70, "fitted:stream/tegner-cpu/rdma/128MB"),
    "FDR InfiniBand.port_rate": _P(6.8e9, VENDOR),
    "FDR InfiniBand.latency": _P(1.9e-6, UNVALIDATED),
    "FDR InfiniBand.efficiency": _P(
        0.33, "fitted:stream/kebnekaise-gpu/rdma/128MB"),
    "FDR InfiniBand.ip_efficiency": _P(0.16, UNVALIDATED),
    "1GbE.port_rate": _P(0.125e9, VENDOR),
    "1GbE.latency": _P(40e-6, UNVALIDATED),
    "1GbE.efficiency": _P(0.95, "fitted:stream/tegner-gpu/grpc/128MB"),
    # ---- Transports: per-message overheads (handshakes, rendezvous,
    # framing), and gRPC's protobuf framing against MPI's packing ---------
    "rdma.latency": _P(6e-6, UNVALIDATED),
    "mpi.latency": _P(25e-6, UNVALIDATED),
    "grpc.latency": _P(120e-6, UNVALIDATED),
    "grpc.serialize_derate": _P(0.75, "fitted:stream/tegner-gpu/grpc/128MB"),
    # QPI/UPI sustained inter-socket rate, one direction.
    "qpi.rate": _P(12.0e9, UNVALIDATED),
    # ---- Lustre per machine: the aggregate OST rate, and what one
    # client's read path sustains -----------------------------------------
    "tegner.lustre_rate": _P(20.0e9, UNVALIDATED),
    "tegner.lustre_client_rate": _P(1.1e9, UNVALIDATED),
    "kebnekaise.lustre_rate": _P(16.0e9, UNVALIDATED),
    "kebnekaise.lustre_client_rate": _P(1.0e9, UNVALIDATED),
    # ---- Outside simnet ----------------------------------------------------
    # ``algorithm="auto"``'s fixed per-round cost, in bytes a link moves
    # in one round trip (~6 us verbs setup x ~8 GB/s effective EDR).
    "collective.auto_crossover_bytes": _P(48 * 1024, UNVALIDATED),
    # The FFT tile extract runs at the host's NumPy rate over this.
    "fft.extract_slowdown": _P(1.5, UNVALIDATED),
    # The matmul reducer's `+=` on a delivered tile runs at this multiple
    # of the host's interpreter-bound byte rate: lighter than the FFT's
    # slicing-insertion merge.
    "matmul.accumulate_speedup": _P(2.0, UNVALIDATED),
    # A queue op's host work on its task's GIL, in the host's per-op
    # dispatch overheads.
    "queue.host_work_scale": _P(2.0, UNVALIDATED),
}


def unit(key: str) -> str:
    """The unit of ``key``'s value, from its field's last word."""
    return UNITS[key.rpartition(".")[2].rpartition("_")[2]]


@functools.cache
def _keys(cls: Any, part: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The record's fields after its leading ``name`` that have a table
    entry, and their keys (a plant changes values, never keys)."""
    pairs = [(field.name, f"{part}.{field.name}")
             for field in dataclasses.fields(cls)[1:]]
    found = [pair for pair in pairs if pair[1] in PARAMETERS]
    if not found:
        raise NotFoundError(
            f"No {cls.__name__} part named {part!r} in the parameter table")
    fields, keys = zip(*found)
    return fields, keys


# The last record built for each part, with the entries it was built
# from: records are frozen, so machines share one while the entries are
# equal.
_BUILT: dict[tuple[Any, str], tuple[list[Parameter], Any]] = {}

T = TypeVar("T")


def model(cls: Callable[..., T], part: str) -> T:
    """The ``cls`` record named ``part``, equal to one built from the
    table as it is now; a field with no entry keeps its default."""
    fields, keys = _keys(cls, part)
    entries = list(map(PARAMETERS.__getitem__, keys))
    built = _BUILT.get((cls, part))
    if built is None or built[0] != entries:
        record = cls(part, **{field: entry.value
                              for field, entry in zip(fields, entries)})
        built = _BUILT[cls, part] = (entries, record)
    return built[1]
