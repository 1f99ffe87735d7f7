"""Adversarial tests for verify_graph: each seeded defect class must be
caught with exactly the expected diagnostic."""

import numpy as np
import pytest

import repro as tf
from repro.analysis import Severity, verify_graph
from repro.core.placement import Placer


def rules_of(report):
    return [d.rule for d in report]


def make_placer(gpus=1):
    return Placer(
        {("localhost", 0): {"cpu": 1, "gpu": gpus}},
        default_job="localhost",
        default_task=0,
    )


class TestCleanGraphs:
    def test_simple_graph_verifies_clean(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([[1.0, 2.0]], name="a")
            b = tf.constant([[3.0], [4.0]], name="b")
            tf.matmul(a, b, name="c")
        report = verify_graph(g)
        assert report.ok and len(report) == 0

    def test_variable_graph_verifies_clean(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0, 2.0]), name="v")
            tf.add(v.value(), tf.constant([1.0, 1.0]), name="r")
        assert verify_graph(g).ok

    def test_subset_mode_skips_initializer_rule(self):
        # A pruned fetch closure legitimately reads a variable whose
        # initializer ran in an earlier session.run.
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            read = tf.identity(v.value(), name="read")
        subset = [v.op, read.op]  # no v/Assign
        assert verify_graph(g, ops=subset).ok


class TestDanglingRefs:
    def test_unregistered_producer_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(1.0, name="a")
            c = tf.identity(a, name="c")
        del g._nodes["a"]  # simulate a pass corrupting the graph index
        report = verify_graph(g, ops=[c.op])
        assert "graph/dangling-ref" in rules_of(report)
        assert report.errors[0].op == "c"

    def test_unregistered_control_input_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(1.0, name="a")
            b = tf.constant(2.0, name="b")
            with g.control_dependencies([a.op]):
                c = tf.identity(b, name="c")
        del g._nodes["a"]
        report = verify_graph(g, ops=[b.op, c.op])
        assert "graph/dangling-ref" in rules_of(report)


class TestCycles:
    def test_control_cycle_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(1.0, name="a")
            b = tf.identity(a, name="b")
        # Mutate control edges into a 2-cycle (no builder can do this).
        a.op.control_inputs = (b.op,)
        b.op.control_inputs = (a.op,)
        report = verify_graph(g)
        assert "graph/cycle" in rules_of(report)
        assert report.errors[0].op in ("a", "b")


class TestDevices:
    def test_unparseable_device_detected(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/job:worker/task:not-a-number"):
                tf.constant(1.0, name="a")
        report = verify_graph(g)
        assert "graph/invalid-device" in rules_of(report)
        assert report.errors[0].op == "a"

    def test_unknown_task_detected_with_placer(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/job:ps/task:3"):
                tf.constant(1.0, name="a")
        report = verify_graph(g, placer=make_placer())
        assert "graph/invalid-device" in rules_of(report)
        assert report.errors[0].device == "/job:ps/task:3"

    def test_known_device_resolves_clean(self):
        g = tf.Graph()
        with g.as_default():
            with g.device("/device:gpu:0"):
                tf.constant(1.0, name="a")
        assert verify_graph(g, placer=make_placer()).ok


class TestVariableInitializers:
    def test_uninitialized_variable_detected(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(tf.constant([1.0]), name="v")
            tf.identity(v.value(), name="read")
        del g._nodes["v/Assign"]  # drop the initializer from the graph
        g._node_order[:] = [op for op in g._node_order
                            if op.name != "v/Assign"]
        report = verify_graph(g)
        assert "graph/uninitialized-variable" in rules_of(report)
        assert report.errors[0].op == "v"

    def test_initialized_variable_clean(self):
        g = tf.Graph()
        with g.as_default():
            tf.Variable(tf.constant([1.0]), name="v")
        assert verify_graph(g).ok


class TestShapeDtype:
    def test_mutated_const_value_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0, 2.0], name="a")
        # A buggy rewrite replaces the payload with a different shape.
        a.op.attrs["value"] = np.zeros((3, 3), np.float32)
        report = verify_graph(g)
        assert "graph/shape-dtype" in rules_of(report)
        assert report.errors[0].op == "a"

    def test_mutated_matmul_attr_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.zeros((2, 3), np.float32), name="a")
            b = tf.constant(np.zeros((3, 4), np.float32), name="b")
            c = tf.matmul(a, b, name="c")
        # transpose_a flips the contraction: recorded (2,4) now invalid.
        c.op.attrs["transpose_a"] = True
        report = verify_graph(g)
        assert "graph/shape-dtype" in rules_of(report)
        assert report.errors[0].op == "c"

    def test_mutated_reduce_axis_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.zeros((2, 3), np.float32), name="a")
            s = tf.reduce_sum(a, axis=0, name="s")
        s.op.attrs["axis"] = (0, 1)  # recorded shape (3,) is now wrong
        report = verify_graph(g)
        assert "graph/shape-dtype" in rules_of(report)


class TestSetShapeInvalidatesMemo:
    """``Tensor.set_shape`` changes what an op's shape function sees, so
    it bumps ``graph.version`` like a new op does."""

    def _graph(self):
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, [None, None], name="x")
            y = tf.matmul(x, tf.ones((5, 6)), name="y")
        return g, x, y

    def test_refinement_is_seen_by_the_cached_verifier(self):
        g, x, _ = self._graph()
        assert verify_graph(g, ops=g.operations, cache=True).ok
        version = g.version
        x.set_shape([3, 4])  # inner dimension 4 vs the constant's 5
        assert g.version == version + 1
        for cache in (True, False):
            report = verify_graph(g, ops=g.operations, cache=cache)
            assert "graph/shape-dtype" in rules_of(report)

    def test_a_no_op_refinement_keeps_the_version(self):
        g, x, _ = self._graph()
        x.set_shape([3, 5])
        version = g.version
        x.set_shape([None, 5])
        x.set_shape([3, 5])
        assert g.version == version

    def test_verifying_session_rejects_its_next_plan(self):
        from repro.errors import VerificationError

        g, x, y = self._graph()
        config = tf.SessionConfig(verify_plans=True)
        with tf.Session(graph=g, config=config) as sess:
            out = sess.run(y, feed_dict={x: np.ones((3, 5), np.float32)})
            assert out.shape == (3, 6)
            x.set_shape([3, 4])
            # A cached plan would run the MatMul and fail in its kernel;
            # a new plan is verified first.
            with pytest.raises(VerificationError, match="graph/shape-dtype"):
                sess.run(y, feed_dict={x: np.ones((3, 4), np.float32)})


class TestInferredSpecs:
    """``create_op`` stamps an op whose specs it inferred with the graph's
    ``spec_epoch``; the cached verifier trusts that record until a
    refinement bumps the epoch, and re-infers everything else."""

    @staticmethod
    def _counting(monkeypatch, op_type):
        from repro.core.kernels.registry import op_def

        definition = op_def(op_type)
        calls = []
        shape_fn = definition.shape_fn

        def counted(specs, attrs):
            calls.append(1)
            return shape_fn(specs, attrs)

        monkeypatch.setattr(definition, "shape_fn", counted)
        return calls

    def test_only_the_cached_verifier_trusts_the_stamp(self, monkeypatch):
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, [None, None], name="x")
            y = tf.matmul(x, tf.ones((5, 6)), name="y")
        assert y.op.inferred_at == g.spec_epoch == 0
        assert x.op.inferred_at is None  # its caller supplied the specs
        calls = self._counting(monkeypatch, "MatMul")
        assert verify_graph(g, ops=g.operations, cache=True).ok
        assert calls == []
        assert verify_graph(g, ops=g.operations).ok
        assert calls == [1]
        x.set_shape([3, 5])
        assert g.spec_epoch == 1
        assert verify_graph(g, ops=g.operations, cache=True).ok
        assert calls == [1, 1]

    def test_session_rejects_caller_specs_that_inference_contradicts(self):
        from repro.errors import VerificationError

        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0, 2.0], name="a")
            bad = g.create_op("Neg", [a], output_specs=[(tf.float32, [3])],
                              name="bad")
        assert bad.inferred_at is None
        config = tf.SessionConfig(verify_plans=True)
        with tf.Session(graph=g, config=config) as sess:
            with pytest.raises(VerificationError,
                               match="graph/shape-dtype") as excinfo:
                sess.run(bad.outputs[0])
        assert [(d.rule, d.op) for d in excinfo.value.diagnostics] == [
            ("graph/shape-dtype", "bad")]


class TestSubgraphChecks:
    """Post-pass working-set invariants (what the pipeline hook runs)."""

    def _subgraph(self, g, fetches, fetch_ops=()):
        from repro.core.optimizer.pipeline import Subgraph

        return Subgraph(
            graph=g,
            ops=list(g.operations),
            feeds=frozenset(),
            fetch_op_names=frozenset(op.name for op in fetch_ops),
            fetch_tensors=tuple(fetches),
            symbolic=False,
        )

    def test_dtype_changing_substitution_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0, 2.0], name="a")
            b = tf.constant([1, 2], name="b")  # int32
            c = tf.identity(a, name="c")
        sg = self._subgraph(g, [c])
        sg.value_subs[a.name] = b  # float tensor replaced by int tensor
        report = verify_graph(sg, opt_pass="bad_pass")
        assert "graph/substitution-type" in rules_of(report)
        assert report.errors[0].opt_pass == "bad_pass"

    def test_substitution_cycle_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(1.0, name="a")
            b = tf.identity(a, name="b")
        sg = self._subgraph(g, [b])
        sg.value_subs[a.name] = b
        sg.value_subs[b.name] = a  # resolve() would loop forever
        report = verify_graph(sg)
        assert "graph/substitution-cycle" in rules_of(report)

    def test_dropped_producer_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(1.0, name="a")
            c = tf.identity(a, name="c")
        sg = self._subgraph(g, [c])
        sg.ops = [c.op]  # pass dropped 'a' but 'c' still consumes it
        report = verify_graph(sg)
        assert "graph/dangling-ref" in rules_of(report)
        assert report.errors[0].op == "c"

    def test_dropped_fetch_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(1.0, name="a")
            c = tf.identity(a, name="c")
        sg = self._subgraph(g, [c])
        sg.ops = [a.op]  # fetched op vanished entirely
        report = verify_graph(sg)
        assert "graph/fetch-dropped" in rules_of(report)

    def test_folded_value_shape_mismatch_detected(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0, 2.0], name="a")
        sg = self._subgraph(g, [a])
        sg.folded["a"] = [np.zeros((7, 7), np.float32)]
        report = verify_graph(sg)
        assert "graph/folded-spec" in rules_of(report)

    def test_folded_root_with_swept_inputs_is_clean(self):
        # Constant folding keeps the root, the sweep removes its const
        # inputs: the verifier must not flag the missing producers.
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0], name="a")
            b = tf.constant([2.0], name="b")
            c = tf.add(a, b, name="c")
        sg = self._subgraph(g, [c])
        sg.folded["c"] = [np.array([3.0], np.float32)]
        sg.ops = [c.op]  # a and b swept
        report = verify_graph(sg)
        assert report.ok


class TestSeverityContract:
    def test_all_graph_errors_are_error_severity(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant([1.0], name="a")
        a.op.attrs["value"] = np.zeros((2, 2), np.float32)
        report = verify_graph(g)
        assert report.errors
        assert all(d.severity is Severity.ERROR for d in report.errors)
        with pytest.raises(Exception):
            report.raise_if_errors()
