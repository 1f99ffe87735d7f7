"""The ``@repro.function`` trace-to-graph frontend."""

import weakref

import numpy as np
import pytest

import repro as tf
from repro.core.metadata import RunMetadata, RunOptions
from repro.errors import InvalidArgumentError
from repro.function import is_tracing


class TestTracingAndCache:
    def test_traces_once_per_signature(self):
        @tf.function
        def mul(a, b):
            return tf.matmul(a, b)

        a = np.eye(3, dtype=np.float32)
        r1 = mul(a, a)
        r2 = mul(a, a)
        np.testing.assert_array_equal(r1, a @ a)
        np.testing.assert_array_equal(r1, r2)
        assert mul.trace_count == 1
        assert mul.cache_info() == {
            "traces": 1, "hits": 1, "misses": 1, "size": 1,
        }

    def test_retraces_on_new_shape(self):
        @tf.function
        def double(x):
            return tf.multiply(x, tf.constant(2.0, dtype=tf.float64))

        double(np.arange(3.0))
        double(np.arange(5.0))
        assert double.trace_count == 2
        double(np.arange(3.0))
        assert double.trace_count == 2

    def test_retraces_on_new_dtype(self):
        @tf.function
        def ident(x):
            return tf.identity(x)

        ident(np.zeros(2, np.float32))
        ident(np.zeros(2, np.float64))
        assert ident.trace_count == 2

    def test_static_arguments_bake_into_the_trace(self):
        @tf.function
        def poly(x, square):
            return tf.multiply(x, x) if square else tf.identity(x)

        x = np.arange(4.0)
        np.testing.assert_array_equal(poly(x, True), x * x)
        np.testing.assert_array_equal(poly(x, False), x)
        assert poly.trace_count == 2

    def test_unhashable_static_argument_rejected(self):
        @tf.function
        def f(x, meta):
            return tf.identity(x)

        with pytest.raises(InvalidArgumentError, match="hashable"):
            f(np.zeros(2), {"not": "hashable"})

    def test_keyword_and_default_arguments(self):
        @tf.function
        def affine(x, scale=2.0, *, shift=1.0):
            return tf.add(tf.multiply(x, tf.constant(scale, dtype=tf.float64)),
                          tf.constant(shift, dtype=tf.float64))

        x = np.arange(3.0)
        np.testing.assert_array_equal(affine(x), x * 2.0 + 1.0)
        np.testing.assert_array_equal(affine(x, shift=3.0), x * 2.0 + 3.0)
        np.testing.assert_array_equal(affine(scale=4.0, x=x), x * 4.0 + 1.0)
        assert affine.trace_count == 3  # three distinct static signatures

    def test_var_positional_expansion(self):
        @tf.function
        def total(*vecs):
            return tf.add_n(list(vecs))

        out = total(np.ones(3), np.full(3, 2.0), np.full(3, 3.0))
        np.testing.assert_array_equal(out, np.full(3, 6.0))
        assert total.trace_count == 1
        total(np.ones(3), np.ones(3))
        assert total.trace_count == 2


class TestOutputsAndStructure:
    def test_tuple_dict_and_none_outputs(self):
        @tf.function
        def stats(x):
            return {
                "sum": tf.reduce_sum(x),
                "pair": (tf.reduce_max(x), None),
            }

        out = stats(np.arange(4.0))
        assert out["sum"] == pytest.approx(6.0)
        assert out["pair"][0] == pytest.approx(3.0)
        assert out["pair"][1] is None

    def test_concrete_leaf_output_captured(self):
        @tf.function
        def with_scalar(x):
            return tf.identity(x), 42

        val, const = with_scalar(np.arange(2.0))
        np.testing.assert_array_equal(val, [0.0, 1.0])
        assert const == 42


class TestVariablesAndSideEffects:
    def test_variables_persist_across_calls(self):
        @tf.function
        def bump():
            v = tf.Variable(0.0, name="counter")
            return tf.assign_add(v, tf.constant(1.0))

        assert [float(bump()) for _ in range(3)] == [1.0, 2.0, 3.0]
        assert bump.trace_count == 1

    def test_side_effect_only_function_runs_effects(self):
        @tf.function
        def accumulate(delta):
            v = tf.Variable(np.zeros(2), name="state")
            tf.assign_add(v, delta)

        assert accumulate(np.ones(2)) is None
        accumulate(np.full(2, 2.0))
        state = accumulate.session.run(
            accumulate.graph.get_tensor_by_name("accumulate/state:0")
        )
        np.testing.assert_array_equal(state, [3.0, 3.0])


class TestInlining:
    def test_nested_traced_function_inlines(self):
        @tf.function
        def inner(x):
            return tf.multiply(x, tf.constant(2.0, dtype=tf.float64))

        @tf.function
        def outer(x):
            assert is_tracing()
            return tf.add(inner(x), tf.constant(1.0, dtype=tf.float64))

        np.testing.assert_array_equal(outer(np.arange(3.0)), [1.0, 3.0, 5.0])
        assert outer.trace_count == 1
        assert inner.trace_count == 0  # inlined, never traced on its own

    def test_symbolic_arguments_inline_into_manual_graph(self):
        @tf.function
        def double(x):
            return tf.multiply(x, tf.constant(2.0, dtype=tf.float64))

        g = tf.Graph()
        with g.as_default():
            t = tf.constant(np.arange(3.0))
            out = double(t)
        assert out.graph is g
        assert double.trace_count == 0
        with tf.Session(graph=g) as sess:
            np.testing.assert_array_equal(sess.run(out), [0.0, 2.0, 4.0])


class TestInputSignature:
    def test_one_trace_for_compatible_shapes(self):
        @tf.function(input_signature=[tf.TensorSpec([None], tf.float64)])
        def total(x):
            return tf.reduce_sum(x)

        assert total(np.arange(3.0)) == pytest.approx(3.0)
        assert total(np.arange(5.0)) == pytest.approx(10.0)
        assert total.trace_count == 1

    def test_incompatible_argument_rejected(self):
        @tf.function(input_signature=[tf.TensorSpec([2, 2], tf.float64)])
        def f(x):
            return tf.identity(x)

        with pytest.raises(InvalidArgumentError, match="incompatible"):
            f(np.zeros(3))

    def test_dtype_kind_mismatch_rejected(self):
        @tf.function(input_signature=[tf.TensorSpec([2], tf.float64)])
        def f(x):
            return tf.identity(x)

        np.testing.assert_allclose(f(np.array([1, 3])), [1.0, 3.0])  # int ok
        with pytest.raises(InvalidArgumentError, match="incompatible"):
            f(np.array([1 + 2j, 3 + 4j]))  # complex would drop imag parts

    def test_tensorspec_semantics(self):
        spec = tf.TensorSpec([None, 4], tf.float64)
        assert spec.is_compatible_with(np.zeros((7, 4)))
        assert not spec.is_compatible_with(np.zeros((7, 5)))
        assert not spec.is_compatible_with(np.zeros((7, 4), dtype=complex))
        assert spec == tf.TensorSpec([None, 4], tf.float64)
        assert spec != tf.TensorSpec([None, 4], tf.float32)
        assert len({spec, tf.TensorSpec([None, 4], tf.float64)}) == 1


class TestConcreteFunction:
    def test_get_concrete_function(self):
        @tf.function
        def mul(a, b):
            return tf.matmul(a, b)

        a = np.eye(2, dtype=np.float64)
        cf = mul.get_concrete_function(a, a)
        assert mul.trace_count == 1
        assert [t.dtype for t in cf.inputs] == [tf.float64, tf.float64]
        np.testing.assert_array_equal(cf(a, a), a)
        # The call through the traced function reuses the same trace.
        mul(a, a)
        assert mul.trace_count == 1
        assert mul.concrete_functions == [cf]

    def test_a_concrete_function_outlives_its_traced_function(self):
        """A ConcreteFunction holds what its traces share, not the
        TracedFunction that caches it: no cycle joins the two, so the
        TracedFunction goes by reference count and the trace still runs
        in the shared graph and session."""
        def mul(a, b):
            return tf.matmul(a, b)

        traced = tf.function(mul)
        a = np.eye(2, dtype=np.float64)
        cf = traced.get_concrete_function(a, a)
        graph = traced.graph
        gone = weakref.ref(traced)
        del traced
        assert gone() is None
        np.testing.assert_array_equal(cf(a, 2 * a), 2 * a)
        assert cf.graph is graph

    def test_structured_outputs_are_symbolic(self):
        @tf.function
        def pair(x):
            return tf.identity(x), tf.reduce_sum(x)

        cf = pair.get_concrete_function(np.arange(3.0))
        out = cf.structured_outputs
        assert isinstance(out, tuple) and len(out) == 2
        assert all(isinstance(t, tf.Tensor) for t in out)


class TestSessionIntegration:
    def test_plan_cache_and_metadata_counters(self):
        @tf.function
        def mul(a, b):
            return tf.matmul(a, b)

        a = np.eye(3, dtype=np.float32)
        meta1 = RunMetadata()
        mul(a, a, run_metadata=meta1)
        assert meta1.plan_cache_hit is False
        assert meta1.trace_cache_misses == 1
        meta2 = RunMetadata()
        mul(a, a, run_metadata=meta2)
        assert meta2.plan_cache_hit is True
        assert meta2.plan_cache_hits == 1
        assert meta2.trace_cache_hits == 1
        info = mul.session.plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_device_scope_places_ops(self):
        @tf.function
        def on_gpu(a):
            with tf.device("/gpu:0"):
                return tf.matmul(a, a)

        meta = RunMetadata()
        on_gpu(np.eye(8, dtype=np.float32),
               options=RunOptions(trace_level=RunOptions.FULL_TRACE),
               run_metadata=meta)
        matmul_stats = [s for s in meta.step_stats if s.op_type == "MatMul"]
        assert matmul_stats and "/device:gpu:0" in matmul_stats[0].device

    def test_simulated_time_advances(self):
        @tf.function
        def mul(a):
            return tf.matmul(a, a)

        a = np.eye(16, dtype=np.float32)
        mul(a)
        env = mul.session.env
        t1 = env.now
        mul(a)
        assert env.now > t1


class TestRunEagerly:
    def test_eager_escape_matches_traced_results(self):
        @tf.function
        def fused(a, b):
            return tf.add(tf.matmul(a, b), tf.constant(1.0, dtype=tf.float64))

        a = np.random.default_rng(0).normal(size=(3, 3))
        traced = fused(a, a)
        assert fused.trace_count == 1
        tf.run_functions_eagerly(True)
        try:
            assert tf.functions_run_eagerly()
            eager = fused(a, a)
            assert fused.trace_count == 1  # no new traces in eager mode
        finally:
            tf.run_functions_eagerly(False)
        np.testing.assert_array_equal(traced, eager)
        assert not tf.functions_run_eagerly()

    def test_eager_escape_runs_side_effects(self):
        @tf.function
        def bump():
            v = tf.Variable(0.0, name="c")
            return tf.assign_add(v, tf.constant(1.0))

        tf.run_functions_eagerly(True)
        try:
            assert float(bump()) == 1.0
        finally:
            tf.run_functions_eagerly(False)

    def test_eager_escape_preserves_variable_state(self):
        """The debugging escape must not change stateful semantics."""
        @tf.function
        def bump():
            v = tf.Variable(0.0, name="c")
            return tf.assign_add(v, tf.constant(1.0))

        tf.run_functions_eagerly(True)
        try:
            assert [float(bump()) for _ in range(3)] == [1.0, 2.0, 3.0]
        finally:
            tf.run_functions_eagerly(False)


class TestDecoratorForms:
    def test_bare_and_parameterized(self):
        def f(x):
            return tf.identity(x)

        bare = tf.function(f)
        parameterized = tf.function(name="custom", seed=7)(f)
        assert isinstance(bare, tf.TracedFunction)
        assert isinstance(parameterized, tf.TracedFunction)
        np.testing.assert_array_equal(bare(np.arange(2.0)), [0.0, 1.0])
        np.testing.assert_array_equal(parameterized(np.arange(2.0)), [0.0, 1.0])
        assert parameterized.graph.seed == 7

    def test_wraps_metadata(self):
        @tf.function
        def documented(x):
            """Docs survive the decorator."""
            return tf.identity(x)

        assert documented.__name__ == "documented"
        assert "survive" in documented.__doc__
