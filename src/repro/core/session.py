"""Sessions: the client interface that runs (sub)graphs on devices.

Mirrors TF 1.x usage::

    with Session() as sess:                  # local, simulated machine
        print(sess.run(c))

    server = Server(cluster, "worker", 0, machine=m)
    with Session(server.target, machine=m) as sess:   # distributed
        sess.run(init)

A session prunes, optimizes and partitions the graph once per (fetches,
fed names and shapes, graph version, plan-shaping config) into an
immutable, cached plan; each run schedules that plan on the
discrete-event simulator with its own
:class:`~repro.core.executor.ExecutionState` and returns concrete NumPy
values (or :class:`~repro.core.tensor.SymbolicValue` specs in shape-only
mode). ``run_gen`` is the coroutine flavour used when many tasks run
concurrently inside one simulation (the paper's worker/reducer pattern);
any number of them, and of OS threads, may be running one plan at once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Union


import numpy as np

from repro.core.executor import ExecutionState, launch_plan
from repro.core.graph import Graph, Operation, get_default_graph
from repro.core.metadata import RunMetadata, RunOptions
from repro.core.ops.state_ops import Variable
from repro.core.partition import FEED, _normalize_feeds, build_plan
from repro.core.placement import Placer, canonical_device
from repro.core.tensor import SymbolicValue, Tensor, TensorShape
from repro.errors import InvalidArgumentError

from repro.runtime.clusterspec import ClusterSpec
from repro.runtime.retry import RetryPolicy
from repro.runtime.server import Server, ServerConfig
from repro.simnet.events import Environment, Event
from repro.simnet.machines import Machine, localhost
from repro.simnet.transports import protocol_latency

__all__ = ["Session", "SessionConfig", "admin_rpc_time"]

# Bound on cached plans per session: long-lived sessions issuing many
# distinct fetch combinations or fed shapes evict LRU-first instead of
# growing without limit.
_PLAN_CACHE_CAPACITY = 64


def admin_rpc_time(remote_tasks: bool) -> float:
    """Administrative RPC overhead charged at the start of every run.

    One client -> master gRPC round trip, plus parallel triggers to the
    remote participating tasks when any exist (gRPC always carries this
    control traffic, whatever the data protocol). Exposed so timing
    tests and benchmarks subtract the same overhead the session charges.
    """
    grpc_rtt = 2 * protocol_latency("grpc")
    return grpc_rtt * (2 if remote_tasks else 1)


@dataclass
class SessionConfig:
    """Session behaviour switches (subset of ``tf.ConfigProto``)."""

    allow_soft_placement: bool = True
    # Shape-only execution: tensors carry metadata, kernels charge costs
    # but never materialize data. Used for paper-scale benchmark points.
    shape_only: bool = False
    # Local-session GPUs (ignored when a target is given).
    num_gpus: int = 1
    # Plan-time graph optimization (Grappler-style pass pipeline): the
    # one switch — the pass sequence itself is fixed
    # (:func:`repro.core.optimizer.run_pipeline`).
    graph_optimization: bool = True
    # Dependency-counting executor: dispatch zero-cost, non-blocking items
    # inline instead of spawning a simulator process per plan item.
    executor_fast_path: bool = True
    # Per-run deadline in *simulated* milliseconds (None = no run-level
    # watchdog; collectives still carry their default join timeout). When
    # a run cannot finish in time — a crashed worker, a dropped rank —
    # it fails with DeadlineExceededError naming the stuck items instead
    # of hanging the simulation. Mirrors tf.ConfigProto's
    # operation_timeout_in_ms.
    operation_timeout_ms: Optional[float] = None
    # Retry policy for transient transport faults (UnavailableError on
    # send edges): None = fail fast, or a
    # :class:`repro.runtime.retry.RetryPolicy` for capped exponential
    # backoff over simulated time.
    retry_policy: Optional["RetryPolicy"] = None


@dataclass
class _PreparedRun:
    """One run's plan plus everything needed to execute and reassemble it.

    Produced by :meth:`Session._prepare_run` (thread-safe, simulator not
    involved); consumed by :meth:`Session._execute_gen`.
    """

    plan: Any
    feeds: dict
    structure: tuple
    slots: list
    fetch_tensors: list
    plan_cache_hit: bool
    cache_hits: int
    cache_misses: int


def _hand_over(event: Event) -> None:
    """Let a failed ``event`` drop its exception: the raise has it now.

    The exception's traceback keeps every frame it passed through, and
    those frames reach the event that carried it (the dispatcher's
    ``done``, the process ``run`` waits on). An event that kept it would
    close a cycle that pins the run's plan, state and metadata until the
    cyclic collector runs. The event stays failed; its value reads None.
    """
    if not event._ok:
        event._value = None


class Session:
    """Encapsulates one client's connection to a (simulated) runtime."""

    def __init__(
        self,
        target: Union[str, Server, None] = None,
        graph: Optional[Graph] = None,
        config: Optional[SessionConfig] = None,
        machine: Optional[Machine] = None,
        env: Optional[Environment] = None,
    ):
        self.graph = graph or get_default_graph()
        self.config = config or SessionConfig()
        self._closed = False
        # A local session with no machine= and no env= builds its own
        # machine, and releases it on close() (Machine.release).
        self._owns_machine = not target and machine is None and env is None
        if isinstance(target, Server):
            self._master = target
            self.machine = target.machine
        elif target:
            if machine is None:
                raise InvalidArgumentError(
                    "A string target needs machine= to resolve addresses "
                    "(the simulation has no real network)"
                )
            address = target.split("://", 1)[-1]
            self._master = machine.resolve(address)
            self.machine = machine
        else:
            # Local session: build a private single-node machine unless the
            # caller supplies one.
            self.machine = machine or localhost(
                env or Environment(), num_gpus=self.config.num_gpus)
            address = "localhost:0"
            if address in self.machine.address_table:
                self._master = self.machine.resolve(address)
            else:
                self._master = Server(
                    ClusterSpec({"localhost": [address]}),
                    job_name="localhost",
                    task_index=0,
                    machine=self.machine,
                    protocol="grpc+verbs",
                    config=ServerConfig(
                        allow_soft_placement=self.config.allow_soft_placement
                    ),
                    node_name="localhost",
                )
        self.env: Environment = self.machine.env
        # (job, task) -> TaskRuntime, and device string -> (runtime,
        # device, memory pool, (job, task)) for every device of the
        # cluster: both filled by _task_runtimes().
        self._runtimes: Optional[dict] = None
        self._devices: dict[str, tuple] = {}
        # Plan cache: repeated runs of the same fetches/feeds on an
        # unchanged graph reuse the pruned/optimized/partitioned plan (TF
        # caches the same way: graphs are registered with workers once).
        # LRU-bounded to _PLAN_CACHE_CAPACITY entries.
        self._plan_cache: OrderedDict = OrderedDict()
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0
        self._plan_cache_evictions = 0
        # Concurrency: many OS threads may call run() on one shared
        # Session (the serving front-door does exactly this). Two locks
        # with distinct jobs:
        #   _cache_lock guards every _plan_cache / counter access —
        #     without it two threads interleave OrderedDict mutations
        #     mid-eviction. The plans themselves need no guarding: they
        #     are immutable, and any number of runs may share one.
        #   _run_lock serializes driving the discrete-event simulator
        #     (env.process + env.run); the DES calendar is a plain heap
        #     with no internal synchronization. Plan preparation (fetch
        #     parsing, feed validation, build_plan) happens *outside*
        #     _run_lock so threads overlap the expensive Python work.
        self._cache_lock = threading.Lock()
        self._run_lock = threading.RLock()

    # -- context management ----------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """End the session; a second call does nothing.

        Waits for a run in progress (``_run_lock``). A session that
        built its own machine releases it, so the
        machine, its environment and their leftovers die by reference
        count. A machine or environment the caller passed in is left
        exactly as it is.
        """
        with self._run_lock:
            if self._closed:
                return
            self._closed = True
            if self._owns_machine:
                self.machine.release()

    # -- cluster resolution ------------------------------------------------------
    @property
    def master(self) -> Server:
        return self._master

    def _task_runtimes(self) -> dict:
        """``(job, task) -> TaskRuntime`` for the whole cluster.

        Walked once per session, together with the device table every
        plan and run of the session reads (``_devices``): the cluster
        spec is fixed and ``Machine.register_server`` never rebinds an
        address, so neither can go stale. They are kept only once *every*
        task has resolved — a session opened before its peers are up
        raises ``NotFoundError`` run after run, until they are.
        """
        runtimes = self._runtimes
        if runtimes is None:
            spec = self._master.cluster_spec
            runtimes = {
                (job, index): self.machine.resolve(
                    spec.task_address(job, index)
                ).runtime
                for job in spec.jobs
                for index in spec.task_indices(job)
            }
            self._devices = {
                device: (runtime, runtime.device(device), pool, jobtask)
                for jobtask, runtime in runtimes.items()
                for device, pool in runtime.memory_pools.items()
            }
            self._runtimes = runtimes
        return runtimes

    def _placer(self, task_runtimes: dict) -> Placer:
        task_devices = {
            key: runtime.device_counts() for key, runtime in task_runtimes.items()
        }
        return Placer(
            task_devices,
            default_job=self._master.job_name,
            default_task=self._master.task_index,
            allow_soft_placement=self.config.allow_soft_placement,
        )

    # -- fetch handling -----------------------------------------------------------
    def _parse_fetches(self, fetches):
        """Flatten fetches.

        Returns ``(structure, fetch_ops, fetch_tensors, slots)`` where
        ``slots`` classifies every leaf *once* — ``("op",)`` or
        ``("tensor", index into fetch_tensors)`` — and is the single
        source of truth for reassembling run results (no second,
        divergent classification pass).
        """
        fetch_ops: list[Operation] = []
        fetch_tensors: list[Tensor] = []
        slots: list = []  # per leaf: ("op",) or ("tensor", index)

        def add_leaf(item):
            if isinstance(item, Variable):
                item = item.value()
            if isinstance(item, str):
                if ":" in item:
                    item = self.graph.get_tensor_by_name(item)
                else:
                    item = self.graph.get_operation_by_name(item)
            if isinstance(item, Tensor):
                if item.graph is not self.graph:
                    raise InvalidArgumentError(
                        f"Fetch {item.name} is from a different graph"
                    )
                slots.append(("tensor", len(fetch_tensors)))
                fetch_tensors.append(item)
            elif isinstance(item, Operation):
                slots.append(("op",))
                fetch_ops.append(item)
            else:
                raise InvalidArgumentError(
                    f"Cannot fetch object of type {type(item).__name__}: {item!r}"
                )

        if isinstance(fetches, (list, tuple)) and len(fetches) != 1:
            for item in fetches:
                add_leaf(item)
            structure = ("list", len(fetches))
        else:
            # A single-element list behaves identically to a bare fetch
            # (callers unpacking generated fetch lists of any length get
            # uniform semantics either way).
            if isinstance(fetches, (list, tuple)):
                (fetches,) = fetches
            add_leaf(fetches)
            structure = ("single",)
        return structure, fetch_ops, fetch_tensors, slots

    # -- running -------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            # A RuntimeError (not a graph-validation error): the failure is
            # in how the Session object is being used, and raising here —
            # before any simulator process spins up — keeps the traceback
            # pointed at the offending run() call.
            raise RuntimeError(
                "Attempted to use a closed Session. Sessions cannot run "
                "after close(); create a new Session instead."
            )

    def run(self, fetches, feed_dict=None, options: Optional[RunOptions] = None,
            run_metadata: Optional[RunMetadata] = None):
        """Execute the graph; blocks until the simulated run completes.

        Thread-safe: concurrent callers prepare their plans (fetch
        parsing, feed validation, plan build / cache lookup) in parallel
        and serialize only on driving the simulator.
        """
        self._check_open()
        prepared = self._prepare_run(fetches, feed_dict)
        with self._run_lock:
            proc = self.env.process(
                self._execute_gen(prepared, options, run_metadata),
                name="session.run",
            )
            try:
                return self.env.run(until=proc)
            except BaseException:
                _hand_over(proc)
                raise

    def run_gen(self, fetches, feed_dict=None, options: Optional[RunOptions] = None,
                run_metadata: Optional[RunMetadata] = None):
        """Coroutine version of :meth:`run` for concurrent sim processes."""
        # Non-generator wrapper so misuse (closed session) raises at the
        # call site rather than when the simulator first advances the
        # returned coroutine. The plan is prepared eagerly, for the same
        # reason.
        self._check_open()
        prepared = self._prepare_run(fetches, feed_dict)
        return self._execute_gen(prepared, options, run_metadata)

    def _prepare_run(self, fetches, feed_dict) -> "_PreparedRun":
        """Everything before the simulator: parse, validate, get a plan.

        A cached plan is a hit however many runs are executing it: plans
        are immutable and a run's values live in its ``ExecutionState``.
        ``build_plan`` for a miss runs outside ``_cache_lock``, so callers
        that race the first build of one key each build (and count) their
        own miss; the last one's plan stays cached.
        """
        structure, fetch_ops, fetch_tensors, slots = self._parse_fetches(fetches)
        feeds = self._validate_feeds(_normalize_feeds(feed_dict))
        config = self.config
        # A plan is priced for its fed shapes (build_plan), so they are part
        # of its key, and so is every config field the build reads.
        cache_key = (
            tuple(op.name for op in fetch_ops),
            tuple(t.name for t in fetch_tensors),
            tuple(sorted((name, value.shape) for name, value in feeds.items())),
            self.graph.version,
            config.graph_optimization,
            config.shape_only,
            config.allow_soft_placement,
        )
        with self._cache_lock:
            plan = self._plan_cache.get(cache_key)
            plan_cache_hit = plan is not None
            if plan_cache_hit:
                self._plan_cache.move_to_end(cache_key)
                self._plan_cache_hits += 1
            else:
                self._plan_cache_misses += 1
            hits, misses = self._plan_cache_hits, self._plan_cache_misses
        if plan is None:
            # A hit's fed shapes were checked when its plan was built.
            self._check_feed_shapes(feeds)
            # Placement inputs and the task table are a miss's business:
            # a hit's plan was built once every task had resolved.
            task_runtimes = self._task_runtimes()  # also fills _devices
            plan = build_plan(
                self.graph,
                fetch_ops,
                fetch_tensors,
                feeds,
                self._placer(task_runtimes),
                canonical_device(
                    self._master.job_name, self._master.task_index, "cpu", 0
                ),
                optimize=config.graph_optimization,
                symbolic=config.shape_only,
                devices=self._devices,
            )
            with self._cache_lock:
                self._plan_cache[cache_key] = plan
                self._plan_cache.move_to_end(cache_key)
                self._evict_plans()
        return _PreparedRun(
            plan=plan,
            feeds=feeds,
            structure=structure,
            slots=slots,
            fetch_tensors=fetch_tensors,
            plan_cache_hit=plan_cache_hit,
            cache_hits=hits,
            cache_misses=misses,
        )

    def _execute_gen(self, prepared: "_PreparedRun", options, run_metadata):
        env = self.env
        plan = prepared.plan
        feeds = prepared.feeds
        structure = prepared.structure
        fetch_tensors = prepared.fetch_tensors
        slots = prepared.slots
        plan_cache_hit = prepared.plan_cache_hit

        trace = bool(options and options.trace_level >= RunOptions.FULL_TRACE)
        metadata = run_metadata if run_metadata is not None else RunMetadata()
        metadata.start_time = env.now
        metadata.pass_stats = list(plan.pass_stats)
        metadata.plan_items = len(plan.items)
        metadata.collective_algorithms = dict(plan.collective_algorithms)
        metadata.plan_cache_hit = plan_cache_hit
        metadata.plan_cache_hits = prepared.cache_hits
        metadata.plan_cache_misses = prepared.cache_misses
        metadata.verifier_warnings = len(plan.verifier_diagnostics)

        remote_tasks = [
            key
            for key in plan.devices_by_task
            if key != (self._master.job_name, self._master.task_index)
        ]
        yield env.timeout(admin_rpc_time(bool(remote_tasks)))

        state = ExecutionState(
            env=env,
            plan=plan,
            protocol=self._master.data_protocol,
            feeds=feeds,
            symbolic=self.config.shape_only,
            graph_seed=self.graph.seed,
            metadata=metadata,
            trace=trace,
            fast_path=self.config.executor_fast_path,
            deadline_seconds=(
                self.config.operation_timeout_ms / 1000.0
                if self.config.operation_timeout_ms is not None
                else None
            ),
            retry_policy=self.config.retry_policy,
            fault_injector=getattr(self.machine, "faults", None),
        )
        try:
            done = launch_plan(state)
            if done is not None:
                try:
                    yield done
                except BaseException:
                    _hand_over(done)
                    raise
            values = []
            for source in plan.fetch_sources:
                if source[0] is FEED:
                    # As validated: an array of the tensor's dtype, or the
                    # fed SymbolicValue itself in shape-only mode.
                    values.append(feeds[source[1]])
                else:
                    item, idx = source
                    values.append(state.values[item.uid][idx])
        finally:
            state.release_all()
        metadata.end_time = env.now

        if structure[0] == "single":
            if fetch_tensors:
                return values[0]
            return None
        # Preserve the original list order of mixed op/tensor fetches,
        # reusing the slot classification from _parse_fetches.
        return [
            values[slot[1]] if slot[0] == "tensor" else None for slot in slots
        ]

    def _validate_feeds(self, feeds: dict) -> dict:
        """Check every feed against the fed tensor's dtype, and coerce
        concrete values to the right NumPy dtype."""
        validated = {}
        for name, value in feeds.items():
            tensor = self.graph.get_tensor_by_name(name)
            if isinstance(value, SymbolicValue):
                if value.dtype != tensor.dtype:
                    raise InvalidArgumentError(
                        f"Feed for {name} has dtype {value.dtype.name}; "
                        f"tensor expects {tensor.dtype.name}"
                    )
            else:
                value = np.asarray(value, dtype=tensor.dtype.np_dtype)
            validated[name] = value
        return validated

    def _check_feed_shapes(self, feeds: dict) -> None:
        """Check every feed's shape against the fed tensor's."""
        for name, value in feeds.items():
            tensor = self.graph.get_tensor_by_name(name)
            fed_shape = TensorShape(value.shape)
            if not tensor.shape.is_compatible_with(fed_shape):
                raise InvalidArgumentError(
                    f"Feed for {name} has shape {fed_shape}; tensor expects "
                    f"{tensor.shape}"
                )

    def _evict_plans(self) -> None:
        """Bound the plan cache, LRU-first. Caller must hold ``_cache_lock``.

        A run that is executing an evicted plan keeps it alive and is
        unaffected; a same-key rerun rebuilds.
        """
        while len(self._plan_cache) > _PLAN_CACHE_CAPACITY:
            self._plan_cache.popitem(last=False)
            self._plan_cache_evictions += 1

    def plan_cache_info(self) -> dict:
        """Cached-plan statistics.

        ``items`` counts schedulable plan items across every cached plan —
        the metric the optimizer benchmarks track across PRs. ``hits`` /
        ``misses`` are cumulative per-run lookup counters (also surfaced
        per run through :class:`~repro.core.metadata.RunMetadata`).
        ``capacity`` is the LRU bound and ``evictions`` counts entries
        dropped to honour it — together they make serving-layer cache
        pressure (many live signatures churning a bounded cache)
        observable.
        """
        with self._cache_lock:
            return {
                "plans": len(self._plan_cache),
                "items": sum(len(p.items) for p in self._plan_cache.values()),
                "hits": self._plan_cache_hits,
                "misses": self._plan_cache_misses,
                "capacity": _PLAN_CACHE_CAPACITY,
                "evictions": self._plan_cache_evictions,
            }

    def list_devices(self) -> list[str]:
        names = []
        for runtime in self._task_runtimes().values():
            names.extend(runtime.device_names)
        return sorted(names)

    def __repr__(self) -> str:
        return f"<Session target={self._master.target!r}>"
