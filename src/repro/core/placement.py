"""Device specifications and op placement.

Implements TF's placement rules the paper describes in Section II:

* explicit pinning via ``tf.device()`` strings (possibly partial);
* *simple placement* — "if an operation supports both CPU and GPU
  execution, GPU devices will be chosen ... the first GPU";
* *soft placement* — "when an operation is pinned to a device with no
  supporting computation kernel, it can be automatically pinned to
  another device with a supporting kernel instead".
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.core.kernels.registry import op_def
from repro.errors import InvalidArgumentError, NotFoundError

__all__ = ["DeviceSpec", "Placer", "canonical_device"]


@dataclass(frozen=True)
class DeviceSpec:
    """A parsed, possibly partial device string (immutable: one parse of
    a string is shared by every caller)."""

    job: Optional[str] = None
    task: Optional[int] = None
    device_type: Optional[str] = None  # "cpu" | "gpu"
    device_index: Optional[int] = None

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def parse(spec: str) -> "DeviceSpec":
        """Parse strings like ``/job:ps/task:0/device:GPU:1`` or ``/gpu:0``.

        Memoized per string: the placer and the graph verifier both ask
        for every op's device, and a program names few distinct ones.
        """
        if not spec:
            return DeviceSpec()
        fields: dict = {}
        for part in spec.strip("/").split("/"):
            if not part:
                continue
            lowered = part.lower()
            if lowered.startswith("job:"):
                fields["job"] = part[4:]
            elif lowered.startswith("replica:"):
                continue  # accepted and ignored (always replica 0)
            elif lowered.startswith("task:"):
                fields["task"] = _int_field(part[5:], spec)
            elif lowered.startswith("device:"):
                rest = part[7:]
                if ":" in rest:
                    dtype, _, idx = rest.partition(":")
                    fields["device_type"] = _dtype_field(dtype, spec)
                    fields["device_index"] = (
                        _int_field(idx, spec) if idx != "*" else None
                    )
                else:
                    fields["device_type"] = _dtype_field(rest, spec)
            elif lowered.startswith("cpu") or lowered.startswith("gpu"):
                dtype, _, idx = part.partition(":")
                fields["device_type"] = _dtype_field(dtype, spec)
                if idx:
                    fields["device_index"] = _int_field(idx, spec)
            else:
                raise InvalidArgumentError(f"Cannot parse device part {part!r} in {spec!r}")
        return DeviceSpec(**fields)

    def to_string(self) -> str:
        parts = []
        if self.job is not None:
            parts.append(f"job:{self.job}")
        if self.task is not None:
            parts.append(f"task:{self.task}")
        if self.device_type is not None:
            idx = self.device_index if self.device_index is not None else 0
            parts.append(f"device:{self.device_type}:{idx}")
        return "/" + "/".join(parts) if parts else ""

    def __str__(self) -> str:
        return self.to_string()


def _int_field(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidArgumentError(f"Bad integer in device spec {spec!r}") from None


def _dtype_field(text: str, spec: str) -> str:
    lowered = text.lower()
    if lowered not in ("cpu", "gpu"):
        raise InvalidArgumentError(
            f"Unknown device type {text!r} in {spec!r} (cpu/gpu supported)"
        )
    return lowered


def canonical_device(job: str, task: int, device_type: str, index: int) -> str:
    return f"/job:{job}/task:{task}/device:{device_type}:{index}"


class Placer:
    """Assigns every op a fully-qualified device.

    Args:
        task_devices: ``(job, task) -> {"cpu": n_cpu, "gpu": n_gpu}`` — the
            devices each task exposes.
        default_job/default_task: where unpinned ops land (the session's
            master task, as in TF).
        allow_soft_placement: relocate ops whose pinned device lacks a
            kernel or does not exist.
    """

    def __init__(
        self,
        task_devices: dict[tuple[str, int], dict[str, int]],
        default_job: str,
        default_task: int,
        allow_soft_placement: bool = True,
    ):
        self.task_devices = task_devices
        self.default_job = default_job
        self.default_task = default_task
        self.allow_soft = allow_soft_placement

    def place(self, op) -> str:
        return self.resolve_device(op.device, op.type, name=op.name)

    def resolve_device(self, device_str: str, op_type: str,
                       name: str = "<device>") -> str:
        """Resolve a raw (possibly partial) device string for ``op_type``.

        The same rules as :meth:`place`, callable on a bare string — the
        partitioner uses it to resolve the per-rank device list of a
        collective op, whose legs land on many devices while the op
        itself carries a single placement.
        """
        requested = DeviceSpec.parse(device_str)  # shared: read, never mutated
        job = self.default_job if requested.job is None else requested.job
        task = self.default_task if requested.task is None else requested.task
        if (job, task) not in self.task_devices:
            raise NotFoundError(
                f"Op {name!r} requests unknown task /job:{job}/task:{task}"
            )
        available = self.task_devices[(job, task)]
        supported = op_def(op_type).devices
        fallback = (
            "gpu" if "gpu" in supported and available.get("gpu", 0) > 0
            else "cpu"
        )

        device_type = requested.device_type
        index = requested.device_index or 0
        if device_type is None:
            # Simple placement: prefer the first GPU when the kernel
            # supports it and the task has one.
            device_type, index = fallback, 0
        else:
            problem = None
            if device_type not in supported:
                problem = f"op type {op_type} has no {device_type} kernel"
            elif available.get(device_type, 0) <= index:
                problem = (
                    f"task has {available.get(device_type, 0)} "
                    f"{device_type} device(s); index {index} does not exist"
                )
            if problem is not None:
                if not self.allow_soft:
                    raise InvalidArgumentError(
                        f"Cannot place op {name!r} on "
                        f"{canonical_device(job, task, device_type, index)!r}"
                        f": {problem} (allow_soft_placement=False)"
                    )
                # Soft placement: fall back to a supported device,
                # preferring the GPU when possible.
                device_type, index = fallback, 0
        return canonical_device(job, task, device_type, index)
