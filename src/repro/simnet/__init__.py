"""Simulated cluster substrate.

``repro.simnet`` provides the discrete-event simulation (DES) kernel and the
hardware models (GPUs, CPUs, nodes, interconnects, transports, machines) on
which the TF-like runtime executes. Simulated time is in **seconds**; data
sizes are in **bytes** unless a name says otherwise.
"""

from repro.simnet.events import (
    AllOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.simnet.faults import (
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    MessageDrop,
    WorkerCrash,
)
from repro.simnet.resources import BandwidthLink, Resource, Store

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Interrupt",
    "Resource",
    "Store",
    "BandwidthLink",
    "FaultPlan",
    "FaultInjector",
    "WorkerCrash",
    "LinkDegradation",
    "MessageDrop",
]
