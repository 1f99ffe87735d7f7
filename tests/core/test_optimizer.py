"""Plan-time optimizer: pass units, config switches, and semantics
preservation (optimized vs. unoptimized runs must fetch identical bytes).
"""

import functools

import numpy as np
import pytest

import repro as tf
from repro.core.metadata import RunMetadata, RunOptions
from repro.core.optimizer.constant_folding import MAX_FOLDED_BYTES
from repro.core.partition import build_plan

from repro.core.placement import Placer
from repro.errors import InvalidArgumentError


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


def opt_plan(graph, fetch_tensors=(), fetch_ops=(), feeds=None, gpus=1,
             symbolic=False):
    return build_plan(
        graph,
        list(fetch_ops),
        list(fetch_tensors),
        feeds or {},
        make_placer(gpus),
        client_device="/job:localhost/task:0/device:cpu:0",
        devices=device_table(gpus),
        optimize=True,
        symbolic=symbolic,
    )


def op_names(plan):
    return {i.op.name for i in plan.items if i.kind in ("op", "const")}


def stats_by_name(plan):
    return {s.name: s for s in plan.pass_stats}


class TestIdentityCollapse:
    def test_identity_chain_collapsed(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.arange(4, dtype=np.float32), name="a")
            b = tf.identity(a, name="b")
            c = tf.identity(b, name="c")
            d = tf.random_uniform([4], name="d")
            out = tf.add(c, d, name="out")
        plan = opt_plan(g, fetch_tensors=[out])
        assert "b" not in op_names(plan) and "c" not in op_names(plan)
        assert stats_by_name(plan)["identity_collapse"].detail["collapsed"] == 2

    def test_fetched_identity_value_survives(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(7.0, name="a")
            b = tf.identity(a, name="b")
        with tf.Session(graph=g) as sess:
            assert sess.run(b) == pytest.approx(7.0)

    def test_cross_device_pinned_identity_kept(self):
        # identity() pinned to another device is a deliberate copy.
        g = tf.Graph()
        with g.as_default():
            with g.device("/cpu:0"):
                a = tf.random_uniform([4], name="a")
            with g.device("/gpu:0"):
                b = tf.identity(a, name="b")
            out = tf.add(b, b, name="out")
        plan = opt_plan(g, fetch_tensors=[out])
        assert "b" in op_names(plan)

    def test_identity_with_control_inputs_kept(self):
        g = tf.Graph()
        with g.as_default():
            side = tf.random_uniform([2], name="side")
            a = tf.constant(1.0, name="a")
            with g.control_dependencies([side]):
                b = tf.identity(a, name="b")
        plan = opt_plan(g, fetch_tensors=[b])
        assert "b" in op_names(plan)
        assert "side" in op_names(plan)


class TestNoOpSplice:
    def test_inner_group_spliced(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(0.0, name="v")
            w = tf.Variable(0.0, name="w")
            inner = tf.group(v.initializer, w.initializer, name="inner")
            outer = tf.group(inner, name="outer")
        plan = opt_plan(g, fetch_ops=[outer])
        names = op_names(plan)
        assert "outer" in names and "inner" not in names
        # outer must still order after both initializers.
        outer_item = next(i for i in plan.items if i.kind == "op"
                          and i.op.name == "outer")
        dep_names = {d.op.name for d in outer_item.extra_deps}
        assert dep_names == {"v/Assign", "w/Assign"}

    def test_fetched_noop_kept(self):
        g = tf.Graph()
        with g.as_default():
            barrier = tf.no_op(name="barrier")
        plan = opt_plan(g, fetch_ops=[barrier])
        assert "barrier" in op_names(plan)


class TestCSE:
    def test_duplicate_pure_ops_merge(self):
        g = tf.Graph()
        with g.as_default():
            x = tf.random_uniform([8], name="x")
            s1 = tf.square(x, name="s1")
            s2 = tf.square(x, name="s2")
            out = tf.add(s1, s2, name="out")
        plan = opt_plan(g, fetch_tensors=[out])
        names = op_names(plan)
        assert ("s1" in names) != ("s2" in names), "exactly one square survives"
        assert stats_by_name(plan)["common_subexpression"].detail["merged"] == 1

    def test_identical_constants_merge(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.ones(4, np.float32), name="a")
            b = tf.constant(np.ones(4, np.float32), name="b")
            r = tf.random_uniform([4], name="r")
            out = tf.add(tf.add(a, r), tf.add(b, r), name="out")
        plan = opt_plan(g, fetch_tensors=[out])
        merged = stats_by_name(plan)["common_subexpression"].detail["merged"]
        assert merged >= 1

    def test_different_attrs_do_not_merge(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(1.0, name="a")
            b = tf.constant(2.0, name="b")
            r = tf.random_uniform([], name="r")
            out = tf.add(tf.add(a, r), tf.add(b, r), name="out")
        plan = opt_plan(g, fetch_tensors=[out])
        assert stats_by_name(plan)["common_subexpression"].detail["merged"] == 0

    def test_different_devices_do_not_merge(self):
        g = tf.Graph()
        with g.as_default():
            x = tf.random_uniform([4], name="x")
            with g.device("/cpu:0"):
                s1 = tf.square(x, name="s1")
            with g.device("/gpu:0"):
                s2 = tf.square(x, name="s2")
            out = tf.add(s1, s2, name="out")
        plan = opt_plan(g, fetch_tensors=[out])
        names = op_names(plan)
        assert "s1" in names and "s2" in names


class TestConstantFolding:
    def test_const_subtree_folds_to_const_item(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.eye(3, dtype=np.float32), name="a")
            b = tf.matmul(a, a, name="b")
            r = tf.random_uniform([3, 3], name="r")
            out = tf.add(b, r, name="out")
        plan = opt_plan(g, fetch_tensors=[out])
        b_item = next(i for i in plan.items if i.op is not None
                      and i.op.name == "b")
        assert b_item.kind == "const"
        np.testing.assert_array_equal(b_item.const_values[0],
                                      np.eye(3, dtype=np.float32))
        assert "a" not in op_names(plan), "interior const died in the sweep"

    def test_fed_tensor_blocks_folding(self):
        # Feeding an intermediate cuts the constness of its consumers.
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(2.0, name="a")
            b = tf.multiply(a, tf.constant(10.0, name="ten"), name="b")
        with tf.Session(graph=g) as sess:
            assert sess.run(b) == pytest.approx(20.0)
            assert sess.run(b, feed_dict={a: np.float32(5.0)}) == pytest.approx(50.0)

    def test_control_dep_blocks_folding(self):
        g = tf.Graph()
        with g.as_default():
            side = tf.random_uniform([2], name="side")
            a = tf.constant(3.0, name="a")
            with g.control_dependencies([side]):
                b = tf.multiply(a, a, name="b")
        plan = opt_plan(g, fetch_tensors=[b])
        b_item = next(i for i in plan.items if i.op is not None
                      and i.op.name == "b")
        assert b_item.kind == "op"
        assert "side" in op_names(plan)

    def test_size_cap_blocks_folding(self):
        g = tf.Graph()
        with g.as_default():
            # One element over the cap; the plan is only built, so the
            # array never materializes.
            big = tf.fill([MAX_FOLDED_BYTES // tf.float32.size + 1], 1.0,
                          name="big")
            out = tf.add(big, big, name="out")
        plan = opt_plan(g, fetch_tensors=[out])
        kinds = {i.op.name: i.kind for i in plan.items if i.op is not None}
        assert kinds["big"] == "op"
        assert kinds["out"] == "op"

    def test_symbolic_folding_matches_shape_only_execution(self):
        g = tf.Graph()
        with g.as_default():
            z = tf.zeros([8], name="z")
            out = tf.add(z, z, name="out")
        config = tf.SessionConfig(shape_only=True)
        with tf.Session(graph=g, config=config) as sess:
            value = sess.run(out)
        # Fill folds to a concrete array in symbolic mode too (Const-only
        # subtree), exactly as unoptimized shape-only execution computes it.
        off = tf.SessionConfig(shape_only=True, graph_optimization=False)
        g2 = tf.Graph()
        with g2.as_default():
            z2 = tf.zeros([8], name="z")
            out2 = tf.add(z2, z2, name="out")
        with tf.Session(graph=g2, config=off) as sess:
            reference = sess.run(out2)
        assert type(value) is type(reference)

    def test_fold_memo_reused_across_sessions(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.full(4, 2.0, np.float32), name="a")
            b = tf.square(a, name="b")
            r = tf.random_uniform([4], name="r")
            out = tf.add(b, r, name="out")
        opt_plan(g, fetch_tensors=[out])
        memo = getattr(g, "_constant_fold_memo")[False]
        assert "b" in memo
        first = memo["b"]
        opt_plan(g, fetch_tensors=[out])
        assert getattr(g, "_constant_fold_memo")[False]["b"] is first


class TestDependencyPruning:
    def test_redundant_control_edge_dropped(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.random_uniform([4], name="a")
            b = tf.square(a, name="b")
            with g.control_dependencies([a]):  # implied by b's data path
                c = tf.square(b, name="c")
        plan = opt_plan(g, fetch_tensors=[c])
        c_item = next(i for i in plan.items if i.op is not None
                      and i.op.name == "c")
        assert c_item.extra_deps == []
        detail = stats_by_name(plan)["dependency_pruning"].detail
        assert detail["control_edges_dropped"] == 1

    def test_independent_control_edge_kept(self):
        g = tf.Graph()
        with g.as_default():
            side = tf.random_uniform([2], name="side")
            a = tf.random_uniform([4], name="a")
            with g.control_dependencies([side]):
                b = tf.square(a, name="b")
        plan = opt_plan(g, fetch_tensors=[b])
        b_item = next(i for i in plan.items if i.op is not None
                      and i.op.name == "b")
        assert len(b_item.extra_deps) == 1


class TestTransferCoalescing:
    def test_equal_constants_share_one_transfer(self):
        # Same value under different partial device scopes: CSE's
        # requested-device key cannot merge them, post-placement
        # coalescing can.
        g = tf.Graph()
        with g.as_default():
            with g.device("/gpu:0"):
                a = tf.constant(np.ones(8, np.float32), name="a")
            with g.device("/device:GPU:0"):
                b = tf.constant(np.ones(8, np.float32), name="b")
            with g.device("/gpu:0"):
                r = tf.random_uniform([8], name="r")
                out = tf.add(tf.add(a, r), tf.add(b, r), name="out")
        plan = opt_plan(g, fetch_tensors=[out])
        detail = stats_by_name(plan)["transfer_coalescing"].detail
        assert detail.get("constants_merged", 0) == 1

    def test_send_recv_edge_registered(self):
        # route_value's recv reads its send's output slot: its one source.
        g = tf.Graph()
        with g.as_default():
            with g.device("/cpu:0"):
                a = tf.constant(np.ones(4, np.float32), name="a")
            with g.device("/gpu:0"):
                b = tf.identity(a, name="b")
        plan = build_plan(
            g, [b.op], [], {}, make_placer(),
            client_device="/job:localhost/task:0/device:cpu:0",
            devices=device_table(),
        )
        sends = [i for i in plan.items if i.kind == "send"]
        recvs = [i for i in plan.items if i.kind == "recv"]
        assert len(sends) == 1 and len(recvs) == 1
        assert recvs[0].sources == [(sends[0], 0)]
        assert recvs[0].extra_deps == []
        assert plan.dep_counts[recvs[0].uid] == 1
        assert sends[0].dependents == [recvs[0].uid]


class TestConfigSwitches:
    def _graph(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.eye(2, dtype=np.float32), name="a")
            b = tf.identity(a, name="b")
            out = tf.matmul(b, b, name="out")
        return g, out

    def test_master_switch_disables_everything(self):
        g, out = self._graph()
        config = tf.SessionConfig(graph_optimization=False)
        with tf.Session(graph=g, config=config) as sess:
            meta = RunMetadata()
            sess.run(out, run_metadata=meta)
        assert meta.pass_stats == []

    def test_pass_stats_reported_in_metadata(self):
        g, out = self._graph()
        with tf.Session(graph=g) as sess:
            meta = RunMetadata()
            sess.run(out, run_metadata=meta)
        names = {s.name for s in meta.pass_stats}
        assert "identity_collapse" in names
        assert "constant_folding" in names
        assert meta.plan_items > 0
        assert meta.total_nodes_optimized() >= 1


class TestPlanCacheLRU:
    def test_cache_bounded(self):
        from repro.core.session import _PLAN_CACHE_CAPACITY

        g = tf.Graph()
        with g.as_default():
            consts = [tf.constant(float(i), name=f"c{i}")
                      for i in range(_PLAN_CACHE_CAPACITY + 8)]
        with tf.Session(graph=g) as sess:
            for c in consts:
                sess.run(c)
            assert len(sess._plan_cache) == _PLAN_CACHE_CAPACITY
            # The most-recent entries survived, the oldest were evicted.
            assert sess.run(consts[-1]) == pytest.approx(len(consts) - 1)


class TestFetchSlots:
    def test_mixed_list_with_variable_and_string_names(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(4.0, name="v")
            c = tf.constant(2.0, name="c")
            barrier = tf.no_op(name="barrier")
        with tf.Session(graph=g) as sess:
            sess.run(v.initializer)
            out = sess.run([v, "c:0", barrier, "barrier", c])
        assert out[0] == pytest.approx(4.0)
        assert out[1] == pytest.approx(2.0)
        assert out[2] is None and out[3] is None
        assert out[4] == pytest.approx(2.0)


class TestExecutorFastPath:
    def test_fast_path_counters(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.ones(4, np.float32), name="a")
            b = tf.identity(a, name="b")
        config = tf.SessionConfig(graph_optimization=False)  # keep identity
        with tf.Session(graph=g, config=config) as sess:
            meta = RunMetadata()
            sess.run(b, run_metadata=meta)
        assert meta.fast_path_items > 0

    def test_legacy_lane_off_flag(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.ones(4, np.float32), name="a")
            b = tf.identity(a, name="b")
        config = tf.SessionConfig(graph_optimization=False,
                                  executor_fast_path=False)
        with tf.Session(graph=g, config=config) as sess:
            meta = RunMetadata()
            value = sess.run(b, run_metadata=meta)
        assert meta.fast_path_items == 0
        assert meta.process_items == meta.plan_items
        np.testing.assert_array_equal(value, np.ones(4, np.float32))

    def test_errors_propagate_through_fast_path(self):
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, shape=[2], name="x")
            y = tf.identity(x, name="y")
        with tf.Session(graph=g) as sess:
            with pytest.raises(InvalidArgumentError, match="feed"):
                sess.run(y)

    def test_oom_still_raised_with_fast_path(self):
        from repro.simnet.gpu import GPUModel

        tiny = GPUModel(
            name="tiny", peak_sp_flops=1e12, peak_dp_flops=5e11,
            mem_bandwidth=1e11, mem_capacity=1024, pcie_rate=1e9,
            launch_overhead=1e-6,
        )
        g = tf.Graph()
        with g.as_default():
            with g.device("/gpu:0"):
                big = tf.fill([1024], 3.0, name="big")  # 4 KB > 1 KB, folded
        config = tf.SessionConfig(gpu_model=tiny)
        with tf.Session(graph=g, config=config) as sess:
            with pytest.raises(tf.errors.ResourceExhaustedError):
                sess.run(big)


def _programs():
    """(name, builder) pairs; builder returns (graph, fetches, feeds)."""

    def mixed_arithmetic():
        g = tf.Graph(seed=3)
        with g.as_default():
            a = tf.constant(np.arange(12, dtype=np.float32).reshape(3, 4))
            b = tf.identity(a, name="b")
            c = tf.reshape(b, [4, 3])
            d = tf.matmul(a, c)
            e = tf.reduce_sum(d)
            r = tf.random_normal([3, 3], seed=5)
            out = tf.add(d, r)
        return g, [out, e], None

    def feeds_and_overrides():
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, shape=[4], name="x")
            k = tf.constant(np.full(4, 3.0, np.float32), name="k")
            out = tf.multiply(tf.add(x, k), k, name="out")
        feeds = {"x:0": np.arange(4, dtype=np.float32)}
        return g, out, feeds

    def variables_and_groups():
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(np.zeros(4, np.float32), name="v")
            bump = tf.assign_add(v, tf.constant(np.ones(4, np.float32)))
            step = tf.group(bump.op, name="step")
        # Sequential runs: init, two steps, then read the variable.
        def run_all(sess):
            sess.run(v.initializer)
            sess.run(step)
            sess.run(step)
            return sess.run(v)

        return g, run_all, None

    def cross_device():
        g = tf.Graph(seed=11)
        with g.as_default():
            with g.device("/cpu:0"):
                a = tf.random_uniform([16, 16], seed=2)
            with g.device("/gpu:0"):
                b = tf.matmul(a, a)
                c = tf.sqrt(tf.square(b))
        return g, c, None

    return [
        ("mixed_arithmetic", mixed_arithmetic),
        ("feeds_and_overrides", feeds_and_overrides),
        ("variables_and_groups", variables_and_groups),
        ("cross_device", cross_device),
    ]


class TestSemanticsPreservation:
    @pytest.mark.parametrize("name,builder", _programs(),
                             ids=[n for n, _ in _programs()])
    def test_optimized_runs_fetch_identical_bytes(self, name, builder):
        values = {}
        for optimize in (True, False):
            g, fetches, feeds = builder()
            config = tf.SessionConfig(graph_optimization=optimize,
                                      executor_fast_path=optimize)
            with tf.Session(graph=g, config=config) as sess:
                if callable(fetches):
                    values[optimize] = fetches(sess)
                else:
                    values[optimize] = sess.run(fetches, feed_dict=feeds)
        on, off = values[True], values[False]
        flat_on = on if isinstance(on, list) else [on]
        flat_off = off if isinstance(off, list) else [off]
        for v_on, v_off in zip(flat_on, flat_off):
            if v_on is None:
                assert v_off is None
                continue
            a, b = np.asarray(v_on), np.asarray(v_off)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_transfer_counts_identical_where_no_pass_applies(self):
        # No identities, duplicates, constants or redundant deps: the
        # optimized plan must produce exactly the same transfers.
        counts = {}
        for optimize in (True, False):
            g = tf.Graph(seed=9)
            with g.as_default():
                with g.device("/cpu:0"):
                    a = tf.random_uniform([64, 64], seed=4)
                with g.device("/gpu:0"):
                    b = tf.matmul(a, a)
            config = tf.SessionConfig(graph_optimization=optimize,
                                      executor_fast_path=optimize)
            with tf.Session(graph=g, config=config) as sess:
                meta = RunMetadata()
                sess.run(b, options=RunOptions(trace_level=1),
                         run_metadata=meta)
            counts[optimize] = [
                (t.src_device, t.dst_device, t.nbytes) for t in meta.transfers
            ]
        assert counts[True] == counts[False]

    def test_cg_app_concrete_parity(self):
        from repro.apps.cg import run_cg

        results = {
            optimize: run_cg(system="tegner-k80", n=64, num_gpus=2,
                             iterations=40, shape_only=False, seed=7,
                             optimize=optimize)
            for optimize in (True, False)
        }
        on, off = results[True], results[False]
        assert on.solution.tobytes() == off.solution.tobytes()
        assert on.residual == off.residual
        assert on.elapsed == off.elapsed  # no folding applies to CG
        assert on.plan_items <= off.plan_items

    def test_fft_app_concrete_parity(self):
        from repro.apps.fft import run_fft

        results = {
            optimize: run_fft(system="tegner-k420", n=1 << 10, num_tiles=4,
                              num_gpus=2, shape_only=False, seed=3,
                              optimize=optimize)
            for optimize in (True, False)
        }
        on, off = results[True], results[False]
        assert on.spectrum.tobytes() == off.spectrum.tobytes()
        assert on.max_error == off.max_error
