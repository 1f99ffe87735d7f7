"""TensorFlow-Timeline analog: render RunMetadata as a Chrome trace.

The paper's Fig. 3 shows such a timeline for the CG solver; the JSON
produced here loads in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json

from repro.core.metadata import RunMetadata

__all__ = ["Timeline"]


class Timeline:
    """Converts :class:`RunMetadata` into Chrome trace-event JSON."""

    def __init__(self, run_metadata: RunMetadata):
        self._metadata = run_metadata

    def generate_chrome_trace_format(self, show_transfers: bool = True) -> str:
        """The trace as a JSON string (Chrome trace-event format)."""
        events = []
        pids: dict[str, int] = {}

        def pid_of(device: str) -> int:
            if device not in pids:
                pid = len(pids)
                pids[device] = pid
                events.append(
                    {
                        "name": "process_name",
                        "ph": "M",
                        "pid": pid,
                        "args": {"name": device},
                    }
                )
            return pids[device]

        for stat in self._metadata.step_stats:
            events.append(
                {
                    "name": stat.op_name,
                    "cat": stat.op_type,
                    "ph": "X",
                    "pid": pid_of(stat.device),
                    "tid": 0,
                    "ts": stat.start * 1e6,  # trace format wants microseconds
                    "dur": max(stat.duration * 1e6, 0.01),
                    "args": {"op_type": stat.op_type, "out_bytes": stat.out_bytes},
                }
            )
        if show_transfers:
            for idx, xfer in enumerate(self._metadata.transfers):
                pid = pid_of(f"transfers ({xfer.protocol})")
                events.append(
                    {
                        "name": xfer.tensor_name,
                        "cat": "transfer",
                        "ph": "X",
                        "pid": pid,
                        "tid": idx % 8,
                        "ts": xfer.start * 1e6,
                        "dur": max(xfer.duration * 1e6, 0.01),
                        "args": {
                            "src": xfer.src_device,
                            "dst": xfer.dst_device,
                            "nbytes": xfer.nbytes,
                            "MB/s": round(xfer.bandwidth / 1e6, 1),
                        },
                    }
                )
        return json.dumps({"traceEvents": events}, indent=1)

    def save(self, path: str, show_transfers: bool = True) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.generate_chrome_trace_format(show_transfers))

    def device_summary(self) -> dict[str, float]:
        """Total busy seconds per device."""
        busy: dict[str, float] = {}
        for stat in self._metadata.step_stats:
            busy[stat.device] = busy.get(stat.device, 0.0) + stat.duration
        return busy
