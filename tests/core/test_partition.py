"""Unit tests for graph pruning and partitioning (send/recv insertion)."""

import dataclasses
import functools

import numpy as np
import pytest

import repro as tf
from repro.core.kernels.registry import KernelContext, dispatch, op_def
from repro.core.partition import FEED, _job_task_of, build_plan
from repro.core.placement import Placer
from repro.core.tensor import SymbolicValue
from repro.errors import InvalidArgumentError
from repro.fuzz.generator import generate


def make_placer(gpus: int = 1):
    return Placer(
        {("localhost", 0): {"cpu": 1, "gpu": gpus}},
        default_job="localhost",
        default_task=0,
    )


@functools.lru_cache(maxsize=None)
def device_table(gpus: int = 1) -> dict:
    """The device table a local session with ``gpus`` GPUs plans with."""
    session = tf.Session(graph=tf.Graph(),
                         config=tf.SessionConfig(num_gpus=gpus))
    session._task_runtimes()
    return session._devices


def plan_for(graph, fetch_tensors=(), fetch_ops=(), feeds=None, gpus=1):
    return build_plan(
        graph,
        list(fetch_ops),
        list(fetch_tensors),
        feeds or {},
        make_placer(gpus),
        client_device="/job:localhost/task:0/device:cpu:0",
        devices=device_table(gpus),
    )


class TestPruning:
    def test_unreachable_ops_excluded(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(1.0, name="a")
            tf.constant(2.0, name="b")  # unreachable from fetch
            c = tf.identity(a, name="c")
        plan = plan_for(g, fetch_tensors=[c])
        names = {i.op.name for i in plan.items if i.kind == "op"}
        assert "a" in names and "c" in names
        assert "b" not in names

    def test_control_deps_are_pulled_in(self):
        g = tf.Graph()
        with g.as_default():
            side = tf.constant(0.0, name="side")
            with g.control_dependencies([side]):
                out = tf.constant(1.0, name="out")
        plan = plan_for(g, fetch_tensors=[out])
        names = {i.op.name for i in plan.items if i.kind == "op"}
        assert "side" in names

    def test_feed_cuts_upstream(self):
        g = tf.Graph()
        with g.as_default():
            expensive = tf.random_uniform([1024], name="expensive")
            out = tf.identity(expensive, name="out")
        plan = plan_for(g, fetch_tensors=[out],
                        feeds={expensive.name: np.zeros(1024, np.float32)})
        names = {i.op.name for i in plan.items if i.kind == "op"}
        assert "expensive" not in names
        # The consumer's source points at the feed.
        out_item = next(i for i in plan.items if i.kind == "op"
                        and i.op.name == "out")
        assert out_item.sources[0][0] is FEED

    def test_fetch_op_without_outputs(self):
        g = tf.Graph()
        with g.as_default():
            noop = tf.no_op(name="barrier")
        plan = plan_for(g, fetch_ops=[noop])
        assert any(i.kind == "op" and i.op.name == "barrier" for i in plan.items)


class TestSendRecvInsertion:
    def test_same_device_has_no_transfers(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/cpu:0"):
                a = tf.constant(np.ones(4, np.float32))
                b = tf.identity(a)
        plan = plan_for(g, fetch_tensors=[b])
        kinds = {i.kind for i in plan.items}
        assert "send" not in kinds and "recv" not in kinds

    def test_cross_device_edge_gets_pair(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/cpu:0"):
                a = tf.constant(np.ones(4, np.float32), name="a")
            with g.device("/gpu:0"):
                b = tf.identity(a, name="b")
        plan = plan_for(g, fetch_ops=[b.op])
        sends = [i for i in plan.items if i.kind == "send"]
        recvs = [i for i in plan.items if i.kind == "recv"]
        assert len(sends) == 1 and len(recvs) == 1
        assert recvs[0].sources == [(sends[0], 0)]
        assert sends[0].dst_device == recvs[0].device
        assert sends[0].tensor_name == recvs[0].tensor_name == "a:0"
        assert "cpu" in sends[0].device and "gpu" in recvs[0].device

    def test_two_consumers_share_one_transfer(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/cpu:0"):
                a = tf.constant(np.ones(4, np.float32), name="a")
            with g.device("/gpu:0"):
                b = tf.identity(a, name="b")
                c = tf.identity(a, name="c")
            total = tf.add(b, c)
        plan = plan_for(g, fetch_ops=[total.op])
        data_sends = [i for i in plan.items
                      if i.kind == "send" and not i.tensor_name.startswith("^")]
        assert len(data_sends) == 1  # deduped: one transfer feeds b and c

    def test_cross_device_control_dep_uses_zero_byte_pair(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/cpu:0"):
                first = tf.constant(1.0, name="first")
            with g.device("/gpu:0"):
                with g.control_dependencies([first]):
                    second = tf.fill([2], 0.0, name="second")
        plan = plan_for(g, fetch_ops=[second.op])
        ctrl_sends = [i for i in plan.items
                      if i.kind == "send" and i.tensor_name.startswith("^")]
        assert len(ctrl_sends) == 1
        assert ctrl_sends[0].sources == []  # no payload

    @pytest.mark.parametrize("fast,keep_source", [
        (True, True), (True, False), (False, False),
    ], ids=["fast-path-uncounted-source", "fast-path-no-source",
            "legacy-no-source"])
    def test_recv_without_its_send_edge_fails_the_run(
            self, monkeypatch, fast, keep_source):
        """The recv's source edge is the only thing that orders it after
        its value, and a recv never waits: a plan that lost the edge (or
        stopped counting it) is a typed internal error naming the recv
        and its tensor, not a recv parked until some deadline."""
        from repro.core import session as session_module
        from repro.errors import InternalError

        launch = session_module.launch_plan

        def launch_without_send_recv_edges(state):
            for item in state.plan.items:
                if item.kind == "recv":  # its send is its only dependency
                    ((send, _),) = item.sources
                    send.dependents.remove(item.uid)
                    state.plan.dep_counts[item.uid] = 0
                    if not keep_source:
                        item.sources = []
            return launch(state)

        monkeypatch.setattr(
            session_module, "launch_plan", launch_without_send_recv_edges
        )
        g = tf.Graph()
        with g.as_default():
            with g.device("/cpu:0"):
                a = tf.constant(np.ones(4, np.float32), name="a")
            with g.device("/gpu:0"):
                b = tf.identity(a, name="b")
        config = tf.SessionConfig(graph_optimization=False,
                                  executor_fast_path=fast)
        with tf.Session(graph=g, config=config) as sess:
            with pytest.raises(
                InternalError,
                match=r"recv:a:0@.*gpu:0 \(item #\d+\).*dispatched before "
                      r"its send completed",
            ):
                sess.run(b)

    @pytest.mark.parametrize("optimize", [False, True],
                             ids=["noopt", "opt"])
    def test_every_recv_reads_one_send_bound_for_its_device(
            self, monkeypatch, optimize):
        """Over the fuzz generator's programs: a recv has exactly one
        source, a live send whose ``dst_device`` is the recv's device;
        every send feeds at least one recv; ``verify_plan`` agrees."""
        pytest.importorskip("repro.fuzz")
        from repro.analysis import verify_plan
        from repro.core import session as session_module
        from repro.fuzz.generator import generate
        from repro.fuzz.harness import Cell, run_cell

        launch = session_module.launch_plan
        plans = {}

        def recording_launch(state):
            plans[id(state.plan)] = state.plan
            return launch(state)

        monkeypatch.setattr(session_module, "launch_plan", recording_launch)
        for seed in range(51):
            run_cell(generate(seed), Cell(optimize=optimize))
        pairs = 0
        for plan in plans.values():
            read = set()
            for recv in plan.items:
                if recv.kind != "recv":
                    continue
                ((send, index),) = recv.sources
                assert plan.items[send.uid] is send and send.kind == "send"
                assert index == 0 and send.dst_device == recv.device
                assert recv.extra_deps == []
                read.add(send.uid)
            sends = {i.uid for i in plan.items if i.kind == "send"}
            assert sends == read
            pairs += len(sends)
            assert len(verify_plan(plan)) == 0
        assert pairs > 100  # the corpus does cross devices

    def test_no_rendezvous_table_left(self):
        """The per-run key table is gone for good, not parked behind a
        flag: nothing in ``src/`` or ``tests/`` names its pieces."""
        import dataclasses
        import re
        from pathlib import Path

        from repro.core.partition import Item

        assert "key" not in {f.name for f in dataclasses.fields(Item)}
        # Spelled in pieces so this file does not match itself.
        banned = re.compile("|".join([
            "Rendez" + "vous", "make" + "_key", "recv" + "_nowait",
            "pending" + "_keys", r"\b[Ii]tem\." + r"key\b",
        ]))
        root = Path(__file__).resolve().parents[2]
        hits = [
            f"{path.relative_to(root)}:{lineno}"
            for top in ("src", "tests", "examples", "benchmarks")
            for path in sorted((root / top).rglob("*.py"))
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if banned.search(line)
        ]
        assert hits == []

    def test_consumer_counts_for_memory(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.ones(4, np.float32), name="a")
            b = tf.identity(a, name="b")
            c = tf.identity(a, name="c")
        plan = plan_for(g, fetch_tensors=[b, c])
        a_item = next(i for i in plan.items if i.kind == "op" and i.op.name == "a")
        # b and c consume a:0 (fetch consumers attach to b/c items).
        assert plan.consumer_counts[a_item.slot] == 2
        # One slot per output, in plan order; every source and fetch
        # reads one.
        assert [i.slot for i in plan.items] == list(range(len(plan.items)))
        assert sum(plan.consumer_counts) == len(plan.fetch_sources) + sum(
            len(i.sources) for i in plan.items)


class TestFetchRouting:
    def test_fetch_from_gpu_routes_to_client(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/gpu:0"):
                x = tf.fill([4], 2.0, name="x")
        plan = plan_for(g, fetch_tensors=[x])
        # The fetch source must live on the client device.
        item, idx = plan.fetch_sources[0]
        assert item.device == "/job:localhost/task:0/device:cpu:0"
        assert item.kind == "recv"

    def test_fed_fetch_is_echoed(self):
        g = tf.Graph()
        with g.as_default():
            p = tf.placeholder(tf.float32, shape=[2], name="p")
        plan = plan_for(g, fetch_tensors=[p], feeds={"p:0": np.ones(2, np.float32)})
        assert plan.fetch_sources[0][0] is FEED


class TestHelpers:
    def test_job_task_of(self):
        assert _job_task_of("/job:w/task:3/device:gpu:0") == ("w", 3)
        with pytest.raises(InvalidArgumentError):
            _job_task_of("/device:gpu:0")

    def test_tasks_listing(self):
        g = tf.Graph()
        with g.as_default():
            c = tf.constant(1.0)
        plan = plan_for(g, fetch_tensors=[c])
        assert plan.tasks == [("localhost", 0)]


def _bits(cost):
    """A Cost's fields, each float as its exact bits."""
    return [(type(v).__name__, v.hex() if isinstance(v, float) else v)
            for v in dataclasses.astuple(cost)]


class TestStaticPrices:
    """An op whose tensors are all fully static is priced once, when its
    plan is built (``Item.price``); a run hands that price to ``dispatch``
    instead of running the op's shape function and cost. Over fuzz seeds
    0..100, optimizer off and on, every price a plan holds equals what the
    run-time path derives from the same specs, bit for bit: the record's
    ``shape_fn`` then ``cost`` for an op it describes, ``cost`` over the
    declared outputs for a ``kernel_spec`` op (whose kernel must deliver
    exactly those)."""

    def test_fuzz_plans_hold_the_run_time_price(self):
        ctx = KernelContext(symbolic=True)
        priced = data_decided = 0
        for seed in range(100):
            program = generate(seed)
            graph = tf.Graph()
            with graph.as_default():
                built = program.materialize()
            for optimize in (False, True):
                # Constant folding evaluates drawn sqrt(-x), x/0, ...
                with np.errstate(divide="ignore", invalid="ignore",
                                 over="ignore"), tf.Session(
                        graph=graph, config=tf.SessionConfig(
                            num_gpus=program.gpus,
                            graph_optimization=optimize)) as sess:
                    plan = sess._prepare_run(built.fetch_tensors,
                                             built.feeds).plan
                for item in plan.items:
                    if item.kind != "op":
                        continue
                    # Drawn programs are fully static: every op is priced.
                    assert item.price is not None, item
                    priced += 1
                    op = item.op
                    in_specs = [SymbolicValue(t.shape.dims, t.dtype)
                                for t in op.inputs]
                    definition = op_def(op.type)
                    if definition.kernel_spec:
                        data_decided += 1
                        want_specs = [SymbolicValue(t.shape.dims, t.dtype)
                                      for t in op.outputs]
                        want_cost = definition.cost(in_specs, want_specs,
                                                    op.attrs)
                    else:
                        want_specs, want_cost = dispatch(op, in_specs, ctx)
                    specs, cost = item.price
                    assert [(s.shape, s.dtype, s.nbytes) for s in specs] == [
                        (s.shape, s.dtype, s.nbytes) for s in want_specs], op
                    assert _bits(cost) == _bits(want_cost), op
        assert priced > 1000 and data_decided > 0
