"""repro — a reproduction of "TensorFlow Doing HPC" (Chien et al., 2019).

The package provides:

* ``repro.core`` / top-level ops — a TF-1.x-style deferred-execution
  dataflow engine (graphs, sessions, devices, variables, queues, datasets);
* ``repro.simnet`` — simulated heterogeneous supercomputers (GPUs, NUMA
  nodes, InfiniBand fabrics, Lustre, gRPC/MPI/RDMA transports);
* ``repro.runtime`` — the distributed runtime (cluster specs, servers,
  collectives, queue runners, reducers);
* ``repro.slurm`` — a simulated Slurm workload manager and the paper's
  cluster resolver;
* ``repro.apps`` — the paper's four HPC applications (STREAM, tiled
  matmul, CG, FFT);
* ``repro.figures`` — drivers regenerating every table and figure of the
  paper's evaluation.

Quickstart (paper Listing 1)::

    import repro as tf

    g = tf.Graph()
    with g.as_default():
        with g.device('/cpu:0'):
            a = tf.random_uniform(shape=[3, 3], dtype=tf.float32)
            b = tf.random_uniform(shape=[3, 3], dtype=tf.float32)
        with g.device('/gpu:0'):
            c = tf.matmul(a, b)
    with tf.Session(graph=g) as sess:
        ret_c = sess.run(c)
"""

from repro import errors
from repro.core.gradients import (
    RegisterGradient,
    apply_gradients,
    gradients,
    minimize,
)
from repro.core.graph import (
    Graph,
    GraphKeys,
    Operation,
    device,
    get_default_graph,
    reset_default_graph,
)
from repro.core.metadata import RunMetadata, RunOptions
from repro.core.ops import *  # noqa: F401,F403 — the flat op namespace
from repro.core.ops import __all__ as _ops_all
from repro.core.checkpoint import (
    Saver,
    checkpoint_step,
    latest_checkpoint,
    read_checkpoint,
)
from repro.core.session import Session, SessionConfig
from repro.core.tensor import SymbolicValue, Tensor, TensorShape
from repro.dtypes import (
    bool_,
    complex64,
    complex128,
    float32,
    float64,
    int32,
    int64,
)
from repro.runtime.clusterspec import ClusterSpec
from repro.runtime.retry import RetryPolicy
from repro.runtime.server import Server, ServerConfig
from repro.simnet.faults import (
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    MessageDrop,
    WorkerCrash,
)

# The serving front-door builds on sessions; imported late so the layer
# below it is fully assembled first.
from repro.serving import ModelServer, ServingConfig

# Imported last: the tracing frontend builds on ops + sessions. After this,
# ``repro.function`` is the decorator (the submodule stays importable as a
# module path, exactly like ``tf.function`` vs TF's internal modules).
from repro.function import (
    ConcreteFunction,
    TensorSpec,
    TracedFunction,
    function,
    functions_run_eagerly,
    run_functions_eagerly,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "GraphKeys",
    "Operation",
    "Tensor",
    "TensorShape",
    "SymbolicValue",
    "Session",
    "SessionConfig",
    "RunOptions",
    "RunMetadata",
    "ClusterSpec",
    "Server",
    "ServerConfig",
    "Saver",
    "checkpoint_step",
    "latest_checkpoint",
    "read_checkpoint",
    "RetryPolicy",
    "FaultInjector",
    "FaultPlan",
    "WorkerCrash",
    "LinkDegradation",
    "MessageDrop",
    "ModelServer",
    "ServingConfig",
    "ConcreteFunction",
    "TensorSpec",
    "TracedFunction",
    "function",
    "functions_run_eagerly",
    "run_functions_eagerly",
    "RegisterGradient",
    "gradients",
    "apply_gradients",
    "minimize",
    "device",
    "get_default_graph",
    "reset_default_graph",
    "errors",
    "float32",
    "float64",
    "complex64",
    "complex128",
    "int32",
    "int64",
    "bool_",
    *_ops_all,
]
