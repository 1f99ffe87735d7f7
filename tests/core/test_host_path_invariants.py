"""A host-only change keeps the calendar exact.

Three small fixed programs, one per lane mix, pin what a change to the
host path (event construction, link wake-ups, session warm path, executor
device resolution) may not move: how many calendar entries
``Environment.step`` pops, the simulated clock bit for bit, and how many
plan items the dispatcher completed. ``step`` is counted by rebinding the
class attribute, exactly as ``benchmarks/e2e/trace.py`` counts
``simnet.events.steps`` — so inlining the pop into ``Environment.run``
reads 0 here before it zeroes the harness counter.

The values were recorded on the commit before the host path was first
optimised (PR 17's parent); they change only with the simulated schedule.

``TestNoCyclicGarbage`` pins the other host-path invariant: a warm run
allocates nothing that only the cyclic collector can free.
``TestPlanMissCounts`` pins what a plan-cache *miss* may not pay again:
a device string parsed per item, a control walk on a control-free op.
``TestShapeOnlyKernelCalls`` pins what a shape-only run may not pay at
all: a kernel call for an op its record describes.
"""

import contextlib
import gc
import sys
from collections import Counter

import numpy as np
import pytest

import repro as tf
import repro.core.executor as executor_module
import repro.core.partition as partition_module
import repro.core.session as session_module
from repro import dtypes
from repro.apps.cg import run_cg
from repro.apps.common import build_cluster, task_device
from repro.apps.sgd import run_sgd
from repro.core.kernels.registry import (
    get_kernel,
    op_def,
    override_kernel,
    registered_op_types,
)
from repro.core.ops.data_ops import Dataset
from repro.core.optimizer.pipeline import Subgraph
from repro.core.placement import DeviceSpec
from repro.core.tensor import SymbolicValue
from repro.figures.fig7_stream import run_fig7
from repro.simnet.cpu import CPUDevice
from repro.simnet.events import Environment
from repro.simnet.gpu import GPUDevice

# name -> (program, steps, float.hex(env.now) per environment in first-step
# order, fast_path_items summed over runs, runs launched)
PROGRAMS = {
    # send/recv + light-lane ops over three transports on two machines.
    "fig7": (
        lambda: run_fig7(iterations=2, sizes=(2,)),
        477,
        ["0x1.3aeb4f518a5cfp-4", "0x1.5e2863f4cc309p-6",
         "0x1.e3e880c858473p-8", "0x1.150c6f22c69dfp-4",
         "0x1.8d59c6737a68cp-7", "0x1.93e22a7df16e6p-9",
         "0x1.949da5905a2bep-6", "0x1.3153b21c9544fp-6",
         "0x1.44381027a8fbap-8"],
        144,
        36,
    ),
    # driven-generator lane: queues, tile reads, concurrent run_gen.
    "cg": (
        lambda: run_cg(n=512, num_gpus=2, iterations=3, shape_only=True),
        749,
        ["0x1.cc3d9941c7df3p-8"],
        437,
        20,
    ),
    # collective lane + pure-op chains on concrete tensors.
    "sgd_collective": (
        lambda: run_sgd(num_workers=2, steps=2, mode="collective"),
        154,
        ["0x1.341ac5513c2e3p-9"],
        90,
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_host_path_keeps_steps_clock_and_items(name, monkeypatch):
    program, steps, clocks, fast_path_items, runs = PROGRAMS[name]
    step, launch = Environment.step, session_module.launch_plan
    envs, metadata = [], []
    calls = [0]

    def counting_step(self):
        calls[0] += 1
        if self not in envs:
            envs.append(self)
        return step(self)

    def recording_launch(state):
        metadata.append(state.metadata)
        return launch(state)

    monkeypatch.setattr(Environment, "step", counting_step)
    monkeypatch.setattr(session_module, "launch_plan", recording_launch)
    program()
    assert calls[0] == steps
    assert [env.now.hex() for env in envs] == clocks
    assert sum(m.fast_path_items for m in metadata) == fast_path_items
    assert len(metadata) == runs


def _two_gpu_program(fast):
    """placeholder -> matmul@gpu:0 -> send/recv -> matmul + two reduce_sums
    on gpu:1 (both ready when the recv lands, so one queues for the
    device)."""
    g = tf.Graph()
    with g.as_default():
        x = tf.placeholder(tf.float32, (64, 64), name="x")
        with g.device("/gpu:0"):
            a = tf.matmul(x, x)
        with g.device("/gpu:1"):
            sums = [tf.reduce_sum(tf.matmul(a, a)), tf.reduce_sum(a)]
    sess = tf.Session(graph=g, config=tf.SessionConfig(
        num_gpus=2, executor_fast_path=fast))
    feed = {x: np.ones((64, 64), np.float32)}
    return sess, lambda: sess.run(sums, feed_dict=feed)


def _allreduce_program(fast):
    """One two-rank CollectiveAllReduce step with an op on either side."""
    handle = build_cluster("tegner-k420", {"worker": 2})
    g = tf.Graph()
    with g.as_default():
        phs, grads = [], []
        for w in range(2):
            with g.device(task_device("worker", w, "cpu", 0)):
                phs.append(tf.placeholder(tf.float64, [256], name=f"x{w}"))
                grads.append(phs[w] * 2.0)
        outs = tf.all_reduce(grads)
        with g.device(task_device("worker", 0, "cpu", 0)):
            total = tf.add(outs[0], outs[1])
    sess = tf.Session(handle.server("worker", 0), graph=g,
                      config=tf.SessionConfig(executor_fast_path=fast))
    feeds = {ph: np.full(256, w + 1.0) for w, ph in enumerate(phs)}
    return sess, lambda: sess.run(total, feed_dict=feeds)


def _queue_program(fast):
    """FIFOQueue enqueue then dequeue: generator kernels, driven through
    ``_finish_generator`` on the dispatcher."""
    g = tf.Graph()
    with g.as_default():
        x = tf.placeholder(tf.float32, (16,), name="x")
        queue = tf.FIFOQueue(4, [tf.float32], shapes=[(16,)])
        enqueue, dequeued = queue.enqueue(x), queue.dequeue()
    sess = tf.Session(graph=g,
                      config=tf.SessionConfig(executor_fast_path=fast))
    feed = {x: np.ones(16, np.float32)}

    def run():
        sess.run(enqueue, feed_dict=feed)
        return sess.run(dequeued)

    return sess, run


def _shape_only_program(fast):
    """Paper-scale matmuls on two GPUs, no values: every run is dispatch."""
    g = tf.Graph()
    with g.as_default():
        x = tf.placeholder(tf.float32, (4096, 4096), name="x")
        with g.device("/gpu:0"):
            a = tf.matmul(x, x)
        with g.device("/gpu:1"):
            b = tf.reduce_sum(tf.matmul(a, a))
    sess = tf.Session(graph=g, config=tf.SessionConfig(
        num_gpus=2, shape_only=True, executor_fast_path=fast))
    feed = {x: SymbolicValue((4096, 4096), tf.float32)}
    return sess, lambda: sess.run(b, feed_dict=feed)


def _dataset_program(fast):
    """Two ``get_next`` ops ready at once: host-side work serialized on
    the task's GIL, one claim granted at once and one queued."""
    g = tf.Graph()
    with g.as_default():
        rows = np.arange(4096, dtype=np.float32).reshape(64, 64)
        iterator = Dataset.from_tensor_slices(rows).repeat() \
            .make_one_shot_iterator()
        first, second = iterator.get_next(), iterator.get_next(name="second")
        total = tf.reduce_sum(first) + tf.reduce_sum(second)
    sess = tf.Session(graph=g,
                      config=tf.SessionConfig(executor_fast_path=fast))
    return sess, lambda: sess.run(total)


class TestNoCyclicGarbage:
    """A warm run leaves nothing for the cyclic collector.

    Everything a warm ``Session.run`` allocates — events, device claims,
    continuations, the run's ``ExecutionState`` / ``RunMetadata`` /
    kernel contexts — dies by reference count at
    ``return``: with the collector off, N warm runs leave **0** objects
    for ``gc.collect()`` to find, for any N. On this PR's parent the same
    programs left, per warm run (dispatcher / reference executor):

    ============  ==========  =========
    program       dispatcher  reference
    ============  ==========  =========
    two_gpu       47          4
    allreduce     53          3
    queue         45          2
    shape_only    41 (≈)      3
    dataset       50          7
    ============  ==========  =========

    — a ``Request`` whose value was itself (one cycle per device claim)
    and ``_start_driven``'s ``advance``/``resume`` closures naming each
    other (one per driven item) — which made CPython's collector 10 % of
    ``paper_figures``' host time. 0 is asserted, never "small": one new
    cycle per run is exactly the regression this pins.
    """

    PROGRAMS = {
        "two_gpu": _two_gpu_program,
        "allreduce": _allreduce_program,
        "queue": _queue_program,
        "shape_only": _shape_only_program,
        "dataset": _dataset_program,
    }

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "reference"])
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_warm_runs_leave_nothing_unreachable(self, program, fast):
        session, run = self.PROGRAMS[program](fast)  # session stays alive
        run()
        run()  # the plan is cached and every per-session memo is filled
        for runs in (10, 60):
            gc.collect()
            gc.disable()
            try:
                for _ in range(runs):
                    run()
                assert gc.collect() == 0
            finally:
                gc.enable()

    def test_a_dropped_plan_leaves_nothing_unreachable(self):
        """An item refers to its producers only (its dependents are uids),
        so a plan evicted from the cache is freed by reference count."""
        session, run = _two_gpu_program(True)
        run()
        plan = next(iter(session._plan_cache.values()))
        assert any(item.kind == "send" for item in plan.items)
        del plan
        gc.collect()
        gc.disable()
        try:
            session._plan_cache.clear()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestValueLaneCounts:
    """A concrete value's spec is read off the array, not re-derived.

    Ten chained ``add`` ops over 8×8 float64, optimizer off so all ten
    run; one cold run, then one warm run with the four things a kernel
    used to pay per op counted by rebinding the attribute. Before the
    value lane read specs off arrays the warm run made **74 / 10 / 30 /
    50** calls to ``np.asarray`` / ``np.broadcast_shapes`` /
    ``SymbolicValue.__init__`` / ``dtypes.as_dtype``, on both executors.
    What is left: the kernel's own ``np.asarray`` of its two operands and
    one per feed (20 + 2). The result spec the shape function derives is
    built from its dims tuple and ``DType`` as they are
    (``SymbolicValue.derived``), so it costs no ``__init__`` and no
    ``as_dtype``. Broadcasting is the shape function's own rule over dims
    tuples, so ``[8, 8] + [8]`` pays exactly what equal shapes pay.

    Over static shapes the plan prices each ``add`` once, when it is
    built (``registry.static_price``), so the warm run calls ``Add``'s
    shape function and cost **0** times; before plans carried prices it
    called each 10 times. The plan also holds what the price comes to:
    the outputs' bytes (the price's specs) and the device's seconds
    (``Item.seconds``), so memory accounting calls ``value_nbytes`` and
    the device calls ``time_for_cost`` **0** times for the ``add`` ops;
    before, 10 each. Over ``[None, 8]`` placeholders the plan is built
    for the fed ``[8, 8]`` and prices each ``add`` from the specs the
    feeds carry forward (``registry.fed_price``), so the warm run pays
    **0** of each too; before plans were keyed on fed shapes it paid 10.

    Every count is pinned on both placements. By default the ``add`` ops
    run on the session's GPU and the fetch moves to the client's CPU
    through a send/recv pair; pinned to the client's CPU the fetch moves
    nothing. The pair reads the bytes its producer's price states off its
    dispatch record (``Item.out_nbytes``), so it measures **0** values;
    before records held them it measured 2 (the send's payload and the
    recv's output). The record also holds the item's device-table entry
    and its lane, so the warm run reads the session's device table and
    calls ``op_def`` **0** times; before, it read the table 22 to 35
    times (per placement and executor), and the fast lane called
    ``op_def`` once per ``add``.
    ``test_an_unpriced_producer_s_transfer_measures_its_bytes`` pins
    the other side: a transfer of a value no price states measures it."""

    @staticmethod
    def _counted(monkeypatch, fast, device, second_shape, first_shape=(8, 8)):
        g = tf.Graph()
        with g.as_default(), g.device(device):
            x = tf.placeholder(tf.float64, first_shape, name="x")
            y = tf.placeholder(tf.float64, second_shape, name="y")
            out = x
            for i in range(10):
                out = tf.add(out, y, name=f"add_{i}")
        sess = tf.Session(graph=g, config=tf.SessionConfig(
            graph_optimization=False, executor_fast_path=fast))
        fed_shape = tuple(8 if d is None else d for d in second_shape)
        feed = {x: np.arange(64.0).reshape(8, 8),
                y: np.arange(float(np.prod(fed_shape))).reshape(fed_shape)}
        sess.run(out, feed_dict=feed)  # cold: plans, places, fills memos
        assert {item.device.rsplit(":", 2)[-2]
                for item in next(iter(sess._plan_cache.values())).items
                if item.kind == "op"} == {"cpu" if device else "gpu"}

        counts = {}

        def count(owner, name):
            original = getattr(owner, name)
            counts[name] = 0

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for device_class in (CPUDevice, GPUDevice):  # one sum for both
            count(device_class, "time_for_cost")

        count(np, "asarray")
        count(np, "broadcast_shapes")
        count(SymbolicValue, "__init__")
        count(dtypes, "as_dtype")
        count(op_def("Add"), "shape_fn")
        count(op_def("Add"), "cost")
        count(executor_module, "value_nbytes")
        _count_op_def_and_device_table(monkeypatch, counts, sess)
        value = sess.run(out, feed_dict=feed)
        monkeypatch.undo()
        np.testing.assert_array_equal(value, feed[x] + 10 * feed[y])
        return counts

    @pytest.mark.parametrize("device", [None, "/cpu:0"],
                             ids=["default", "client-cpu"])
    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "reference"])
    def test_equal_shapes_pay_nothing_per_operand(self, fast, device,
                                                  monkeypatch):
        assert self._counted(monkeypatch, fast, device, (8, 8)) == {
            "asarray": 22, "broadcast_shapes": 0, "__init__": 0,
            "as_dtype": 0, "shape_fn": 0, "cost": 0, "time_for_cost": 0,
            "value_nbytes": 0, "op_def": 0, "device_table": 0}

    @pytest.mark.parametrize("device", [None, "/cpu:0"],
                             ids=["default", "client-cpu"])
    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "reference"])
    def test_different_shapes_still_broadcast(self, fast, device,
                                              monkeypatch):
        assert self._counted(monkeypatch, fast, device, (8,)) == {
            "asarray": 22, "broadcast_shapes": 0, "__init__": 0,
            "as_dtype": 0, "shape_fn": 0, "cost": 0, "time_for_cost": 0,
            "value_nbytes": 0, "op_def": 0, "device_table": 0}

    @pytest.mark.parametrize("device", [None, "/cpu:0"],
                             ids=["default", "client-cpu"])
    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "reference"])
    def test_partially_static_shapes_are_priced_once_per_fed_shape(
            self, fast, device, monkeypatch):
        assert self._counted(monkeypatch, fast, device, (None, 8),
                             first_shape=(None, 8)) == {
            "asarray": 22, "broadcast_shapes": 0, "__init__": 0,
            "as_dtype": 0, "shape_fn": 0, "cost": 0, "time_for_cost": 0,
            "value_nbytes": 0, "op_def": 0, "device_table": 0}

    @pytest.mark.parametrize("declared", [True, False],
                             ids=["declared", "undeclared"])
    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "reference"])
    def test_an_unpriced_producer_s_transfer_measures_its_bytes(
            self, fast, declared, monkeypatch):
        """A dequeue (on the client's CPU: queues live there) feeds an
        ``identity`` on the GPU, which is fetched back. A queue that
        declares its element shape prices both ops, and nothing is
        measured. One that does not leaves the dequeue unpriced
        (``kernel_spec`` with an undeclared dim) and the identity
        downstream of it: each op measures its output, and each
        transfer's send and recv measure the value they move, 6 in all."""
        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(2, [tf.float64],
                             shapes=[[8, 8]] if declared else None)
            put = q.enqueue(tf.placeholder(tf.float64, [8, 8], name="v"))
            with g.device("/device:gpu:0"):
                out = tf.identity(q.dequeue())
        sess = tf.Session(graph=g, config=tf.SessionConfig(
            graph_optimization=False, executor_fast_path=fast))
        element = np.arange(64.0).reshape(8, 8)
        for _ in range(2):  # the second pair of runs is warm
            sess.run(put, feed_dict={"v:0": element})
            counts = {"value_nbytes": 0}
            original = executor_module.value_nbytes

            def counted(value):
                counts["value_nbytes"] += 1
                return original(value)

            monkeypatch.setattr(executor_module, "value_nbytes", counted)
            np.testing.assert_array_equal(sess.run(out), element)
            monkeypatch.undo()
        assert counts == {"value_nbytes": 0 if declared else 6}


def _count_op_def_and_device_table(monkeypatch, counts, sess):
    """Count, into ``counts``, ``op_def`` calls through every module that
    imported it and reads of ``sess``'s device table, until
    ``monkeypatch.undo``."""
    counts["op_def"] = 0

    def counted_op_def(op_type):
        counts["op_def"] += 1
        return op_def(op_type)

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro")
                and getattr(module, "op_def", None) is op_def):
            monkeypatch.setattr(module, "op_def", counted_op_def)
    monkeypatch.setattr(sess, "_devices",
                        _CountedLookups(sess._devices, counts))


class _CountedLookups(dict):
    """A device table that counts every read of an entry."""

    def __init__(self, table, counts):
        super().__init__(table)
        self.counts = counts
        counts["device_table"] = 0

    def __getitem__(self, key):
        self.counts["device_table"] += 1
        return super().__getitem__(key)

    def get(self, *args):
        self.counts["device_table"] += 1
        return super().get(*args)


class _CountedReads(dict):
    reads = 0

    def get(self, *args):
        self.reads += 1
        return super().get(*args)


class TestPlanMissCounts:
    """Graph facts that never change are derived once per distinct value.

    One ``build_plan`` of a 20-op program — two eight-``matmul`` chains,
    one per worker GPU (worker 1's built first), joined on worker 0 behind
    one ``control_dependencies`` edge — lowers to 25 items on 3 devices.
    ``build_plan`` once parsed a device string **25** times (once per
    item); now once per device. ``DeviceSpec.parse`` is memoized per
    string, so the placer and the graph verifier share one parse (the
    session verifies its plans here) and a second plan over the same
    graph parses nothing.
    ``effective_control_deps`` read ``control_drops`` once per call on
    every op; now it reads neither rewrite map for an op that has no
    control input."""

    @staticmethod
    def _program():
        handle = build_cluster("tegner-k420", {"worker": 2})
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, (16, 16), name="x")
            chains = []
            for w in (1, 0):
                with g.device(task_device("worker", w, "gpu", 0)):
                    a = x
                    for i in range(8):
                        a = tf.matmul(a, x, name=f"w{w}_{i}")
                    chains.append(a)
            with g.device(task_device("worker", 0, "gpu", 0)):
                with g.control_dependencies([chains[0].op]):
                    out = tf.reduce_sum(chains[1], name="out")
                total = tf.add(out, tf.reduce_sum(chains[0]), name="total")
        sess = tf.Session(handle.server("worker", 0), graph=g)
        return g, sess, total, {x: np.ones((16, 16), np.float32)}

    def test_a_device_string_is_parsed_once_per_device(self, monkeypatch):
        g, sess, total, feed = self._program()
        parsed = []
        original = partition_module._job_task_of

        def counted(device):
            parsed.append(device)
            return original(device)

        monkeypatch.setattr(partition_module, "_job_task_of", counted)
        DeviceSpec.parse.cache_clear()
        plan = sess._prepare_run(total, feed).plan
        monkeypatch.undo()
        assert len(g.operations) == 20 and len(plan.items) == 25
        assert parsed == list(plan.per_device) and len(parsed) == 3
        # The pruned ops name two device strings (the fed ``x`` is cut
        # away), and the placer and the verifier share one parse of each.
        assert DeviceSpec.parse.cache_info().misses == 2
        second = sess._prepare_run(g.get_tensor_by_name("out:0"), feed)
        assert not second.plan_cache_hit
        assert DeviceSpec.parse.cache_info().misses == 2
        gpu0, gpu1, cpu0 = (task_device("worker", 0, "gpu", 0),
                            task_device("worker", 1, "gpu", 0),
                            task_device("worker", 0, "cpu", 0))
        # The parent's value, key order included (first item of each task).
        assert list(plan.devices_by_task.items()) == [
            (("worker", 1), {gpu1}), (("worker", 0), {gpu0, cpu0})]
        sess.close()

    def test_a_control_free_op_reads_no_rewrite_map(self):
        g, sess, _, _ = self._program()
        sess.close()
        sg = Subgraph(graph=g, ops=g.operations, feeds=frozenset(),
                      fetch_op_names=frozenset(), symbolic=False,
                      control_subs=_CountedReads(),
                      control_drops=_CountedReads())
        gated = g.get_operation_by_name("out")
        for op in g.operations:
            if op is not gated:
                assert not op.control_inputs
                assert sg.effective_control_deps(op) == []
        assert sg.control_drops.reads == sg.control_subs.reads == 0
        assert [d.name for d in sg.effective_control_deps(gated)] == ["w1_7"]
        assert sg.control_drops.reads == sg.control_subs.reads == 1

    def test_spliced_and_merged_deps_still_resolve(self):
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, [4], name="x")
            kept = tf.square(x, name="kept")
            merged = tf.square(x, name="merged")  # CSE folds it into kept
            barrier = tf.group(merged, name="barrier")  # spliced away
            with g.control_dependencies([barrier]):
                out = tf.negative(x, name="out")
        with tf.Session(graph=g) as sess:
            plan = sess._prepare_run(
                [out, kept], {x: np.ones(4, np.float32)}).plan
        names = {i.op.name for i in plan.items if i.kind == "op"}
        assert names == {"kept", "out"}
        item = next(i for i in plan.items if i.kind == "op"
                    and i.op.name == "out")
        assert {d.op.name for d in item.extra_deps} == {"kept"}


class TestShapeOnlyKernelCalls:
    """A kernel computes values; the op record computes specs and cost.

    So a shape-only run calls a kernel only where data decides the spec
    (``kernel_spec`` ops: queues, iterators, tile files, variables,
    constants). Counted by wrapping every registered kernel: the fig10 CG
    program — queues, tile reads, variables and per-GPU matmul/add chains
    — before the record owned the rule made one kernel call per executed
    op, each returning a spec from its own symbolic branch."""

    def test_shape_only_cg_calls_only_kernel_spec_kernels(self):
        calls = Counter()

        def counted(op_type):
            kernel = get_kernel(op_type)

            def wrapper(op, inputs, ctx):
                calls[op_type] += 1
                return kernel(op, inputs, ctx)

            return wrapper

        with contextlib.ExitStack() as stack:
            for op_type in registered_op_types():
                stack.enter_context(
                    override_kernel(op_type, counted(op_type)))
            run_cg(n=512, num_gpus=2, iterations=3, shape_only=True)
        off_list = {t: n for t, n in calls.items()
                    if not op_def(t).kernel_spec}
        assert off_list == {}
        assert calls["QueueDequeue"] > 0 and calls["ReadTile"] > 0

    def test_every_op_is_described_by_its_record(self):
        undescribed = [
            t for t in registered_op_types()
            if not callable(op_def(t).cost)
            or (op_def(t).shape_fn is None and not op_def(t).kernel_spec)
        ]
        assert undescribed == []
