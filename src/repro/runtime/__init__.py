"""Distributed runtime: cluster specs, servers, collectives, queue helpers.

This package plays the role of TensorFlow's C++ distributed runtime: it
hosts per-task state (devices, resource managers), routes tensors between
tasks over the simulated network, and provides the coordination helpers
(queue runners, reducers) the paper's applications use.
"""

from repro.runtime.clusterspec import ClusterSpec
from repro.runtime.collective import run_collective
from repro.runtime.server import Server, TaskRuntime

__all__ = ["ClusterSpec", "Server", "TaskRuntime", "run_collective"]
