"""Distributed runtime: cluster specs, servers, rendezvous, queue helpers.

This package plays the role of TensorFlow's C++ distributed runtime: it
hosts per-task state (devices, resource managers), routes tensors between
tasks over the simulated network, and provides the coordination helpers
(queue runners, reducers) the paper's applications use.
"""

from repro.runtime.clusterspec import ClusterSpec
from repro.runtime.collective import run_collective
from repro.runtime.rendezvous import Rendezvous
from repro.runtime.server import Server, TaskRuntime

__all__ = ["ClusterSpec", "Server", "TaskRuntime", "Rendezvous",
           "run_collective"]
