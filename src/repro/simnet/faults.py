"""Deterministic fault injection for the simulated cluster.

HPC jobs share nodes, networks and filesystems with other tenants;
the paper leans on TensorFlow's checkpoint-restart support precisely
because long CG solves and training runs outlive the mean time between
node failures on a busy cluster. This module makes those failures a
first-class, *replayable* part of the simulation: a :class:`FaultPlan`
lists faults at absolute simulated times, a :class:`FaultInjector`
installs them on a :class:`~repro.simnet.machines.Machine`, and every
run of the same plan on the same workload reproduces the same failure
byte for byte (message-drop sampling is driven by a seeded generator,
and the DES clock is deterministic).

Three fault classes cover the taxonomy the runtime must survive:

* :class:`WorkerCrash` — a task (job, index) dies at time T: its
  resource manager is wiped (variables, queues, RNG lanes — exactly
  what a killed process loses), registered sim processes are
  interrupted, and plan items placed on it stall until the optional
  ``restart_after`` revives the task.
* :class:`LinkDegradation` — a transient cut of a node's NIC/Ethernet
  bandwidth and/or extra per-message latency for a window of time
  (cable flap, congested leaf switch, thermal throttling of the HCA).
* :class:`MessageDrop` — individual inter-node messages vanish
  (lossy fabric, RDMA retry exhaustion); the sender observes
  :class:`~repro.errors.UnavailableError` and may retry.

Detection and recovery live elsewhere (executor deadlines, the retry
policy, checkpoint-restart drivers); this module only *creates* the
trouble, deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from typing import Optional, Union

import numpy as np

from repro.errors import InvalidArgumentError, UnavailableError
from repro.simnet.events import Environment


__all__ = [
    "WorkerCrash",
    "LinkDegradation",
    "MessageDrop",
    "FaultPlan",
    "FaultInjector",
]


@dataclass(frozen=True)
class WorkerCrash:
    """Task ``/job:{job}/task:{task}`` dies at simulated time ``at``.

    ``restart_after`` seconds later (if given) the task comes back
    *empty* — exactly like a respawned process: reachable again, but
    holding none of its variables. Recovery of state is the
    application's job (restore from the latest checkpoint).
    """

    job: str
    task: int
    at: float
    restart_after: Optional[float] = None


@dataclass(frozen=True)
class LinkDegradation:
    """Transient degradation of one node's link for a time window.

    ``bandwidth_scale`` multiplies the link rate during the window
    (0.1 = a 90 % bandwidth cut); ``extra_latency`` is added to every
    inter-node message touching the node while degraded. ``link``
    selects the interconnect: ``"nic"`` (fabric HCA) or ``"eth"``
    (management Ethernet).
    """

    node: str
    at: float
    duration: float
    bandwidth_scale: float = 1.0
    extra_latency: float = 0.0
    link: str = "nic"


@dataclass(frozen=True)
class MessageDrop:
    """Inter-node messages vanish inside a time window.

    ``src``/``dst`` name nodes (None = any). At most ``count`` messages
    are dropped, each matching message independently with
    ``probability`` (sampled from the plan's seeded generator, so the
    same plan drops the same messages every run).
    """

    src: Optional[str] = None
    dst: Optional[str] = None
    after: float = 0.0
    until: float = math.inf
    count: int = 1
    probability: float = 1.0


FaultSpec = Union[WorkerCrash, LinkDegradation, MessageDrop]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable schedule of faults.

    The ``seed`` drives all stochastic decisions (message-drop
    sampling); two injectors built from equal plans inject identical
    faults against identical workloads.
    """

    faults: tuple = ()
    seed: int = 0

    def __post_init__(self):
        for spec in self.faults:
            if not isinstance(spec, (WorkerCrash, LinkDegradation, MessageDrop)):
                raise InvalidArgumentError(
                    f"Unknown fault spec {type(spec).__name__}: {spec!r}"
                )

    @classmethod
    def single_crash(cls, job: str, task: int, at: float,
                     restart_after: Optional[float] = None) -> "FaultPlan":
        """The canonical scenario: one worker dies (and maybe returns)."""
        return cls(faults=(WorkerCrash(job, task, at, restart_after),))


class _DropState:
    __slots__ = ("spec", "remaining")

    def __init__(self, spec: MessageDrop):
        self.spec = spec
        self.remaining = spec.count


class FaultInjector:
    """Installs a :class:`FaultPlan` onto a simulated machine.

    After :meth:`install`, the machine's ``faults`` attribute points
    here; the transports consult :meth:`on_message` per inter-node
    message and the executor consults :meth:`is_down` per dispatched
    item. ``stats`` counts what actually fired.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.env: Optional[Environment] = None
        self.machine = None
        self._rng = np.random.default_rng(plan.seed)
        self._down: set[tuple[str, int]] = set()
        self._drops: list[_DropState] = []
        # (node, link, start, end, extra_latency) latency windows.
        self._latency_windows: list[tuple[str, float, float, float]] = []
        # (job, task) -> sim processes to interrupt on crash.
        self._procs: dict[tuple[str, int], list] = {}
        self.stats = {
            "crashes": 0,
            "restarts": 0,
            "drops": 0,
            "degradations": 0,
            "delayed_messages": 0,
        }

    # -- installation ---------------------------------------------------------
    def install(self, machine) -> "FaultInjector":
        """Arm every fault of the plan on ``machine``'s calendar."""
        if self.env is not None:
            raise InvalidArgumentError("FaultInjector is already installed")
        self.env = machine.env
        self.machine = machine
        machine.faults = self
        for spec in self.plan.faults:
            if isinstance(spec, WorkerCrash):
                self._at(spec.at, lambda s=spec: self._crash(s))
            elif isinstance(spec, LinkDegradation):
                self._at(spec.at, lambda s=spec: self._degrade(s))
            else:  # MessageDrop: consulted lazily by on_message
                self._drops.append(_DropState(spec))
        return self

    def _at(self, when: float, action) -> None:
        delay = max(0.0, when - self.env.now)
        timeout = self.env.timeout(delay)
        timeout.callbacks.append(lambda _ev: action())

    # -- worker crash/restart -------------------------------------------------
    def register_worker(self, job: str, task: int, process) -> None:
        """Attach a sim process to a task: crashed tasks interrupt it."""
        self._procs.setdefault((job, task), []).append(process)

    def is_down(self, job: str, task: int) -> bool:
        return (job, task) in self._down

    def down_tasks(self) -> list[tuple[str, int]]:
        return sorted(self._down)

    def _crash(self, spec: WorkerCrash) -> None:
        key = (spec.job, spec.task)
        if key in self._down:
            return
        self._down.add(key)
        self.stats["crashes"] += 1
        self._wipe_task(spec.job, spec.task)
        for proc in self._procs.get(key, ()):  # registered app processes
            if proc.is_alive:
                proc.interrupt(cause=f"worker /job:{spec.job}/task:{spec.task} "
                                     f"crashed at t={self.env.now:g}")
        if spec.restart_after is not None:
            self._at(self.env.now + spec.restart_after,
                     lambda: self._restart(key))

    def _restart(self, key: tuple[str, int]) -> None:
        if key in self._down:
            self._down.discard(key)
            self.stats["restarts"] += 1

    def _wipe_task(self, job: str, task: int) -> None:
        """Drop the task's resource manager, as a killed process would
        (its variables' memory goes back to the pools)."""
        for server in self.machine.address_table.values():
            if server.job_name == job and server.task_index == task:
                server.runtime.resources.clear()

    # -- link degradation -----------------------------------------------------
    def _link_of(self, spec: LinkDegradation):
        node = self.machine.node(spec.node)
        if spec.link == "nic":
            return node.nic_link
        if spec.link == "eth":
            return node.eth_link
        raise InvalidArgumentError(
            f"Unknown link {spec.link!r}; expected 'nic' or 'eth'"
        )

    def _degrade(self, spec: LinkDegradation) -> None:
        self.stats["degradations"] += 1
        end = self.env.now + spec.duration
        if spec.bandwidth_scale != 1.0:
            if spec.bandwidth_scale <= 0:
                raise InvalidArgumentError(
                    f"bandwidth_scale must be > 0, got {spec.bandwidth_scale}"
                )
            link = self._link_of(spec)
            healthy = link.rate
            link.set_rate(healthy * spec.bandwidth_scale)
            self._at(end, lambda: link.set_rate(healthy))
        if spec.extra_latency > 0.0:
            self._latency_windows.append(
                (spec.node, self.env.now, end, spec.extra_latency)
            )

    # -- per-message hook (called by simnet.transports) -----------------------
    def on_message(self, src_node, dst_node, nbytes: int, protocol: str) -> float:
        """Consulted once per inter-node message before it hits the wire.

        Returns extra latency seconds to charge; raises
        :class:`UnavailableError` when the message is dropped.
        """
        now = self.env.now
        for drop in self._drops:
            spec = drop.spec
            if drop.remaining <= 0:
                continue
            if not (spec.after <= now <= spec.until):
                continue
            if spec.src is not None and spec.src != src_node.name:
                continue
            if spec.dst is not None and spec.dst != dst_node.name:
                continue
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                continue
            drop.remaining -= 1
            self.stats["drops"] += 1
            raise UnavailableError(
                f"message {src_node.name} -> {dst_node.name} "
                f"({nbytes} bytes, {protocol}) dropped at t={now:g}"
            )
        extra = 0.0
        for node_name, start, end, latency in self._latency_windows:
            if start <= now <= end and node_name in (src_node.name,
                                                     dst_node.name):
                extra += latency
        if extra > 0.0:
            self.stats["delayed_messages"] += 1
        return extra

    def __repr__(self) -> str:
        return (
            f"<FaultInjector {len(self.plan.faults)} faults, "
            f"{len(self._down)} tasks down, stats={self.stats}>"
        )
