"""Execution tests for the op library: every op checked against NumPy."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro as tf
from repro.core.kernels.registry import KernelContext, ResourceManager, override_kernel
from repro.core.tensor import SymbolicValue, value_nbytes
from repro.eager import EagerContext, evaluate
from repro.errors import FailedPreconditionError, InvalidArgumentError
from repro.simnet.gpu import GPUModel


def run_op(build, shape_only=False, seed=7):
    """Build a graph via ``build()`` and run its returned fetches."""
    g = tf.Graph(seed=seed)
    with g.as_default():
        fetches = build()
    config = tf.SessionConfig(shape_only=shape_only)
    with tf.Session(graph=g, config=config) as sess:
        return sess.run(fetches)


class TestElementwise:
    @pytest.mark.parametrize("fn,np_fn", [
        (tf.add, np.add),
        (tf.subtract, np.subtract),
        (tf.multiply, np.multiply),
        (tf.divide, np.divide),
        (tf.maximum, np.maximum),
        (tf.minimum, np.minimum),
    ])
    def test_binary_matches_numpy(self, fn, np_fn):
        a = np.array([[1.0, -2.0], [3.5, 4.0]], dtype=np.float32)
        b = np.array([[2.0, 2.0], [0.5, -1.0]], dtype=np.float32)
        result = run_op(lambda: fn(tf.constant(a), tf.constant(b)))
        np.testing.assert_allclose(result, np_fn(a, b), rtol=1e-6)

    def test_broadcasting(self):
        a = np.ones((3, 1), dtype=np.float32)
        b = np.arange(4, dtype=np.float32)
        result = run_op(lambda: tf.add(tf.constant(a), tf.constant(b)))
        np.testing.assert_allclose(result, a + b)

    def test_mixed_dtype_promotes(self):
        result = run_op(
            lambda: tf.add(
                tf.constant(1, dtype=tf.int32), tf.constant(2.5, dtype=tf.float64)
            )
        )
        assert result.dtype == np.float64
        assert result == pytest.approx(3.5)

    @pytest.mark.parametrize("fn,np_fn", [
        (tf.negative, np.negative),
        (tf.square, np.square),
        (tf.sqrt, np.sqrt),
    ])
    def test_unary_matches_numpy(self, fn, np_fn):
        x = np.array([1.0, 4.0, 9.0], dtype=np.float64)
        result = run_op(lambda: fn(tf.constant(x)))
        np.testing.assert_allclose(result, np_fn(x))

    @given(hnp.arrays(np.float32, hnp.array_shapes(max_dims=2, max_side=6),
                      elements=st.floats(-100, 100, width=32)))
    @settings(max_examples=20, deadline=None)
    def test_property_add_self_is_double(self, x):
        result = run_op(lambda: tf.add(tf.constant(x), tf.constant(x)))
        np.testing.assert_allclose(result, 2 * x, rtol=1e-5)


class TestMatMul:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7)).astype(np.float32)
        b = rng.normal(size=(7, 3)).astype(np.float32)
        result = run_op(lambda: tf.matmul(tf.constant(a), tf.constant(b)))
        np.testing.assert_allclose(result, a @ b, rtol=1e-5)

    def test_transpose_flags(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(7, 5)).astype(np.float64)
        b = rng.normal(size=(3, 7)).astype(np.float64)
        result = run_op(
            lambda: tf.matmul(
                tf.constant(a), tf.constant(b), transpose_a=True, transpose_b=True
            )
        )
        np.testing.assert_allclose(result, a.T @ b.T)

    def test_matrix_vector(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        v = np.array([1.0, 2.0, 3.0])
        result = run_op(lambda: tf.matmul(tf.constant(a), tf.constant(v)))
        np.testing.assert_allclose(result, a @ v)

    def test_inner_dim_mismatch(self):
        g = tf.Graph()
        with g.as_default():
            with pytest.raises(InvalidArgumentError):
                tf.matmul(
                    tf.constant(np.zeros((2, 3), np.float32)),
                    tf.constant(np.zeros((4, 5), np.float32)),
                )

    def test_dot(self):
        x = np.arange(8, dtype=np.float64)
        y = np.arange(8, dtype=np.float64)[::-1].copy()
        result = run_op(lambda: tf.dot(tf.constant(x), tf.constant(y)))
        assert result == pytest.approx(np.dot(x, y))


class TestReductions:
    def test_reduce_sum_all(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert run_op(lambda: tf.reduce_sum(tf.constant(x))) == pytest.approx(66.0)

    def test_reduce_sum_axis(self):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        result = run_op(lambda: tf.reduce_sum(tf.constant(x), axis=0))
        np.testing.assert_allclose(result, x.sum(axis=0))

    def test_reduce_mean_keepdims(self):
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        result = run_op(lambda: tf.reduce_mean(tf.constant(x), axis=1, keepdims=True))
        np.testing.assert_allclose(result, x.mean(axis=1, keepdims=True))

    def test_reduce_max(self):
        x = np.array([3.0, -1.0, 7.0])
        assert run_op(lambda: tf.reduce_max(tf.constant(x))) == pytest.approx(7.0)

    def test_add_n(self):
        xs = [np.full(3, float(i)) for i in range(4)]
        result = run_op(lambda: tf.add_n([tf.constant(x) for x in xs]))
        np.testing.assert_allclose(result, sum(xs))


class TestArrayOps:
    def test_reshape_with_minus_one(self):
        x = np.arange(12, dtype=np.float32)
        result = run_op(lambda: tf.reshape(tf.constant(x), [3, -1]))
        assert result.shape == (3, 4)

    def test_reshape_bad_count(self):
        g = tf.Graph()
        with g.as_default():
            with pytest.raises(InvalidArgumentError):
                tf.reshape(tf.constant(np.zeros(10, np.float32)), [3, 4])

    def test_transpose(self):
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        result = run_op(lambda: tf.transpose(tf.constant(x)))
        np.testing.assert_allclose(result, x.T)

    def test_concat_and_split_roundtrip(self):
        x = np.arange(12, dtype=np.float32).reshape(2, 6)

        def build():
            parts = tf.split(tf.constant(x), 3, axis=1)
            return tf.concat(parts, axis=1)

        np.testing.assert_allclose(run_op(build), x)

    def test_stack(self):
        xs = [np.full((2,), float(i), dtype=np.float64) for i in range(3)]
        result = run_op(lambda: tf.stack([tf.constant(x) for x in xs]))
        np.testing.assert_allclose(result, np.stack(xs))

    def test_slice(self):
        x = np.arange(20, dtype=np.float32).reshape(4, 5)
        result = run_op(lambda: tf.slice_(tf.constant(x), [1, 2], [2, 3]))
        np.testing.assert_allclose(result, x[1:3, 2:5])

    def test_fill_zeros_ones(self):
        z, o = run_op(lambda: [tf.zeros([2, 2]), tf.ones([3], dtype=tf.float64)])
        np.testing.assert_allclose(z, np.zeros((2, 2)))
        np.testing.assert_allclose(o, np.ones(3))

    def test_cast(self):
        result = run_op(lambda: tf.cast(tf.constant([1.9, -1.9]), tf.int32))
        np.testing.assert_array_equal(result, np.array([1, -1], dtype=np.int32))

    def test_squeeze_expand_dims(self):
        x = np.zeros((2, 1, 3), dtype=np.float32)
        sq, ex = run_op(lambda: [
            tf.squeeze(tf.constant(x), axis=1),
            tf.expand_dims(tf.constant(x), axis=0),
        ])
        assert sq.shape == (2, 3)
        assert ex.shape == (1, 2, 1, 3)


class TestRandomOps:
    def test_uniform_range_and_shape(self):
        result = run_op(lambda: tf.random_uniform([100], minval=2.0, maxval=5.0))
        assert result.shape == (100,)
        assert result.min() >= 2.0
        assert result.max() < 5.0

    def test_deterministic_given_seeds(self):
        def build():
            return tf.random_uniform([8], seed=11)

        a = run_op(build, seed=3)
        b = run_op(build, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_different_graph_seed_changes_values(self):
        def build():
            return tf.random_uniform([8], seed=11)

        a = run_op(build, seed=3)
        b = run_op(build, seed=4)
        assert not np.array_equal(a, b)

    def test_successive_runs_draw_fresh_values(self):
        g = tf.Graph(seed=5)
        with g.as_default():
            r = tf.random_normal([4])
        with tf.Session(graph=g) as sess:
            first = sess.run(r)
            second = sess.run(r)
        assert not np.array_equal(first, second)

    def test_normal_moments(self):
        result = run_op(lambda: tf.random_normal([5000], mean=1.0, stddev=2.0))
        assert result.mean() == pytest.approx(1.0, abs=0.15)
        assert result.std() == pytest.approx(2.0, abs=0.15)

    def test_int_dtype_rejected(self):
        g = tf.Graph()
        with g.as_default():
            with pytest.raises(InvalidArgumentError):
                tf.random_uniform([2], dtype=tf.int32)


class TestFFTOps:
    def test_fft_matches_numpy(self):
        rng = np.random.default_rng(2)
        x = (rng.normal(size=64) + 1j * rng.normal(size=64)).astype(np.complex128)
        result = run_op(lambda: tf.fft(tf.constant(x)))
        np.testing.assert_allclose(result, np.fft.fft(x), rtol=1e-10)

    def test_ifft_inverts_fft(self):
        rng = np.random.default_rng(3)
        x = (rng.normal(size=32) + 1j * rng.normal(size=32)).astype(np.complex128)
        result = run_op(lambda: tf.ifft(tf.fft(tf.constant(x))))
        np.testing.assert_allclose(result, x, atol=1e-12)

    def test_real_input_rejected(self):
        g = tf.Graph()
        with g.as_default():
            with pytest.raises(InvalidArgumentError):
                tf.fft(tf.constant(np.zeros(4, np.float64)))


class TestVariables:
    def test_init_read_assign(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(np.array([1.0, 2.0]), name="v")
            update = tf.assign(v, tf.constant(np.array([5.0, 6.0])))
        with tf.Session(graph=g) as sess:
            sess.run(v.initializer)
            np.testing.assert_allclose(sess.run(v), [1.0, 2.0])
            sess.run(update.op)
            np.testing.assert_allclose(sess.run(v), [5.0, 6.0])

    def test_uninitialized_read_fails(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(1.0, name="v")
        with tf.Session(graph=g) as sess:
            with pytest.raises(FailedPreconditionError):
                sess.run(v)

    def test_assign_add_sub(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(10.0, name="v")
            inc = tf.assign_add(v, tf.constant(2.5))
            dec = tf.assign_sub(v, tf.constant(1.0))
        with tf.Session(graph=g) as sess:
            sess.run(v.initializer)
            sess.run(inc.op)
            sess.run(inc.op)
            sess.run(dec.op)
            assert sess.run(v) == pytest.approx(14.0)

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "reference"])
    def test_fetched_variable_storage_is_read_only(self, fast):
        """A read, a slice of it and an update's result are the stored
        array itself (no copy), so writing to a fetched one raises and the
        variable keeps its value."""
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(np.arange(6.0), name="v")
            head = tf.slice_(v.value(), [0], [3])
            inc = tf.assign_add(v, tf.constant(np.ones(6)))
        config = tf.SessionConfig(executor_fast_path=fast)
        with tf.Session(graph=g, config=config) as sess:
            sess.run(v.initializer)
            for fetched in sess.run([v, head]) + [sess.run(inc)]:
                assert not fetched.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    fetched += 1
            np.testing.assert_array_equal(sess.run(v), np.arange(6.0) + 1)

    def test_global_variables_initializer(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.Variable(1.0, name="a")
            b = tf.Variable(2.0, name="b")
            init = tf.global_variables_initializer(graph=g)
        with tf.Session(graph=g) as sess:
            sess.run(init)
            assert sess.run(a) == pytest.approx(1.0)
            assert sess.run(b) == pytest.approx(2.0)

    def test_state_persists_across_sessions_on_same_server(self):
        g = tf.Graph()
        with g.as_default():
            v = tf.Variable(3.0, name="v")
        sess1 = tf.Session(graph=g)
        sess1.run(v.initializer)
        # Second session against the same master sees the same resources.
        sess2 = tf.Session(sess1.master, graph=g)
        assert sess2.run(v) == pytest.approx(3.0)


class TestShapeOnlyMode:
    def test_matmul_symbolic(self):
        def build():
            a = tf.random_uniform([128, 64])
            b = tf.random_uniform([64, 32])
            return tf.matmul(a, b)

        result = run_op(build, shape_only=True)
        assert isinstance(result, SymbolicValue)
        assert result.shape == (128, 32)

    def test_constants_stay_concrete(self):
        result = run_op(lambda: tf.constant([1.0, 2.0]), shape_only=True)
        np.testing.assert_allclose(result, [1.0, 2.0])

    def test_mixed_symbolic_propagates(self):
        def build():
            big = tf.random_uniform([64])
            small = tf.constant(np.ones(64, dtype=np.float32))
            return tf.add(big, small)

        result = run_op(build, shape_only=True)
        assert isinstance(result, SymbolicValue)
        assert result.shape == (64,)


class TestLaneParity:
    """The dispatcher (fast lane) and the reference executor
    (``executor_fast_path=False``) drive the same plan: same bytes, same
    simulated clock, same error."""

    @staticmethod
    def _run_lanes(graph, fetch, feed, optimize):
        out = {}
        for fast in (True, False):
            config = tf.SessionConfig(graph_optimization=optimize,
                                      executor_fast_path=fast)
            with tf.Session(graph=graph, config=config) as sess:
                value = sess.run(fetch, feed_dict=feed)
                out[fast] = (value.tobytes(), sess.env.now)
        return out

    @pytest.mark.parametrize("optimize", [True, False])
    def test_feeds_into_chain_identical(self, optimize):
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, (4, 4), name="x")
            c = tf.sqrt(tf.exp(tf.matmul(x, x)))
        feed = {x: np.linspace(0.5, 2.0, 16, dtype=np.float32).reshape(4, 4)}
        out = self._run_lanes(g, c, feed, optimize)
        assert out[True] == out[False]

    @pytest.mark.parametrize("optimize", [True, False])
    def test_control_dep_consumer_identical(self, optimize):
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, (8,), name="x")
            b = tf.sqrt(tf.exp(x))
            with g.control_dependencies([b.op]):
                gated = tf.constant(np.float32(7.0))
            out_t = tf.add(b, gated)
        out = self._run_lanes(g, out_t, {x: np.ones(8, np.float32)}, optimize)
        assert out[True] == out[False]

    def test_kernel_error_surfaces_identically(self):
        # Shapes left open so the bad matmul is only discovered by the
        # kernel at execution time.
        g = tf.Graph()
        with g.as_default():
            x = tf.placeholder(tf.float32, None, name="x")
            b = tf.exp(tf.matmul(x, x))
        feed = {x: np.ones((2, 3), np.float32)}  # 2x3 @ 2x3: invalid
        errors = {}
        for fast in (True, False):
            config = tf.SessionConfig(executor_fast_path=fast)
            with tf.Session(graph=g, config=config) as sess:
                with pytest.raises(Exception) as info:
                    sess.run(b, feed_dict=feed)
                errors[fast] = (type(info.value), str(info.value),
                                sess.env.now)
        assert errors[True] == errors[False]


class TestDispatcherContinuations:
    """The dispatcher's continuation objects (``_Driven`` for generators,
    ``_OpElapsed`` for a cost timeout) keep the contracts of the closures
    they replaced; the reference executor is the parity oracle."""

    GPU = "/job:localhost/task:0/device:gpu:0"

    @staticmethod
    def _run_with_exp_kernel(kernel, fast):
        """Run ``exp(x)`` on gpu:0 with ``kernel`` standing in for Exp;
        returns (value or raised error, sim clock, gpu slots still held)."""
        with override_kernel("Exp", kernel):
            g = tf.Graph()
            with g.as_default():
                x = tf.placeholder(tf.float32, (4,), name="x")
                with g.device("/gpu:0"):
                    y = tf.exp(x)
            sess = tf.Session(graph=g, config=tf.SessionConfig(
                executor_fast_path=fast))
            try:
                outcome = sess.run(y, feed_dict={x: np.ones(4, np.float32)})
            except Exception as exc:
                outcome = (type(exc), str(exc))
        gpu = sess.master.runtime.device(TestDispatcherContinuations.GPU)
        return outcome, sess.env.now, gpu.resource.count

    @pytest.mark.parametrize("processed", [False, True],
                             ids=["pending", "already-processed"])
    def test_failed_event_is_thrown_into_the_generator(self, processed):
        def make_kernel(cleanups):
            def kernel(op, inputs, ctx):
                env = ctx.env
                failing = env.event()
                try:
                    if processed:
                        failing.fail(RuntimeError("boom")).defused()
                        yield env.timeout(0.0)  # the failure is processed
                    else:
                        env.timeout(1e-3).callbacks.append(
                            lambda _t: failing.fail(RuntimeError("boom")))
                    yield failing
                finally:
                    cleanups.append(env.now)
                return [inputs[0]]

            return kernel

        results = {}
        for fast in (True, False):
            cleanups = []
            results[fast] = self._run_with_exp_kernel(
                make_kernel(cleanups), fast)
            assert len(cleanups) == 1  # the generator's finally ran, once
        outcome, _, held = results[True]
        assert outcome == (RuntimeError, "boom")
        assert held == 0  # _finish_generator's finally released the slot
        assert results[True] == results[False]

    def test_processed_targets_advance_in_a_loop(self):
        """5 000 already-processed events in a row: no recursion."""

        def kernel(op, inputs, ctx):
            ready = ctx.env.event().succeed(7)
            yield ctx.env.timeout(0.0)  # ``ready`` is processed first
            for _ in range(5000):
                assert (yield ready) == 7
            return [inputs[0] * 2]

        fast, reference = (self._run_with_exp_kernel(kernel, lane)
                           for lane in (True, False))
        np.testing.assert_array_equal(fast[0], np.full(4, 2.0, np.float32))
        assert fast[1:] == reference[1:] and fast[2] == 0

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "reference"])
    def test_error_after_the_cost_timeout_fails_the_run_only(self, fast):
        """Output registration runs out of memory inside the timeout's
        continuation: the error is that run's (thrown where its caller
        waits), never raised out of ``Environment.step``; the slot and
        the memory come back and the session stays usable."""
        tiny = GPUModel(
            name="tiny", peak_sp_flops=1e12, peak_dp_flops=5e11,
            mem_bandwidth=1e11, mem_capacity=1024, pcie_rate=1e9,
            launch_overhead=1e-6,
        )
        g = tf.Graph()
        with g.as_default():
            with g.device("/gpu:0"):
                big = tf.random_uniform([1024])  # 4 KB > 1 KB capacity
                small = tf.random_uniform([8])
        sess = tf.Session(graph=g, config=tf.SessionConfig(
            gpu_model=tiny, executor_fast_path=fast))
        env, caught = sess.env, []

        def caller():
            try:
                yield env.process(sess.run_gen(big))
            except tf.errors.ResourceExhaustedError as exc:
                caught.append(exc)
            return (yield env.process(sess.run_gen(small)))

        value = env.run(until=env.process(caller()))
        assert len(caught) == 1 and value.shape == (8,)
        runtime = sess.master.runtime
        assert runtime.device(self.GPU).resource.count == 0
        assert runtime.memory_pools[self.GPU].in_use == 0


class TestConstantOwnsItsArray:
    """``tf.constant`` copies: the caller's array is neither frozen nor
    aliased, and the stored value has the dtype the tensor declares."""

    def test_callers_array_stays_writeable_and_unaliased(self):
        x = np.ones(4)
        g = tf.Graph()
        with g.as_default():
            c = tf.constant(x)
        x[0] = 2.0  # raised "assignment destination is read-only" before
        assert x.flags.writeable
        with tf.Session(graph=g) as sess:
            np.testing.assert_array_equal(sess.run(c), np.ones(4))

    @pytest.mark.parametrize("optimize", [True, False])
    @pytest.mark.parametrize("np_dtype", [np.float16, np.uint8, np.int16])
    def test_delivers_its_declared_dtype(self, np_dtype, optimize):
        g = tf.Graph()
        with g.as_default():
            c = tf.constant(np.arange(4).astype(np_dtype))
            doubled = tf.add(c, c)
        config = tf.SessionConfig(graph_optimization=optimize)
        with tf.Session(graph=g, config=config) as sess:
            for tensor, value in zip((c, doubled), sess.run([c, doubled])):
                assert value.dtype == tensor.dtype.np_dtype
                assert SymbolicValue.of(value).nbytes == value_nbytes(value)
            np.testing.assert_array_equal(sess.run(doubled), [0, 2, 4, 6])


def _open_add():
    a = tf.placeholder(tf.float32, [None], name="a")
    b = tf.placeholder(tf.float32, [None], name="b")
    return (a, b), tf.add(a, b, name="bad_add")


def _open_matmul():
    a = tf.placeholder(tf.float32, [None, None], name="a")
    b = tf.placeholder(tf.float32, None, name="b")
    return (a, b), tf.matmul(a, b, name="bad_matmul")


def _open_dot():
    a = tf.placeholder(tf.float32, [None], name="a")
    b = tf.placeholder(tf.float32, [None], name="b")
    return (a, b), tf.dot(a, b, name="bad_dot")


def _open_reshape(target):
    def build():
        a = tf.placeholder(tf.float32, [None], name="a")
        return (a,), tf.reshape(a, target, name="bad_reshape")
    return build


def _open_layout(rank, op, **kwargs):
    """``op`` over placeholders of the given static ranks (None: unknown)."""
    def build():
        placeholders = tuple(
            tf.placeholder(tf.float32, r if r is None else [None] * r,
                           name=f"p{i}")
            for i, r in enumerate(rank)
        )
        args = placeholders[0] if len(placeholders) == 1 else list(placeholders)
        out = op(args, name="bad_layout", **kwargs)
        return placeholders, out[0] if isinstance(out, list) else out
    return build


# (build, feeds, message): every row is discovered only at run time, by
# the op's shape function over the fed values' specs.
_RUNTIME_SHAPE_CASES = [
    (_open_add, [(3,), (4,)],
     r"Add operand shapes \[\(3,\), \(4,\)\].*\[op: bad_add\]"),
    (_open_matmul, [(2, 3), (2, 3)],
     r"MatMul operand shapes \[\(2, 3\), \(2, 3\)\].*3 vs 2.*"
     r"\[op: bad_matmul\]"),
    (_open_matmul, [(2, 3), (5,)],
     r"MatMul operand shapes \[\(2, 3\), \(5,\)\].*3 vs 5.*"
     r"\[op: bad_matmul\]"),
    (_open_dot, [(3,), (4,)],
     r"Dot operand shapes \[\(3,\), \(4,\)\].*\[op: bad_dot\]"),
    (_open_reshape([5]), [(3,)],
     r"Reshape operand shapes \[\(3,\)\]: 3 elements do not fit "
     r"\(5,\).*\[op: bad_reshape\]"),
    (_open_reshape([2, -1]), [(3,)],
     r"Reshape operand shapes \[\(3,\)\]: 3 elements do not fit "
     r"\(2, -1\).*\[op: bad_reshape\]"),
    (_open_layout([2, 2], tf.concat, axis=0), [(2, 3), (2, 4)],
     r"Concat operand shapes \[\(2, 3\), \(2, 4\)\]: concat shapes "
     r"disagree on dim 1.*\[op: bad_layout\]"),
    (_open_layout([1, 1], tf.stack), [(3,), (4,)],
     r"Stack operand shapes \[\(3,\), \(4,\)\].*\[op: bad_layout\]"),
    (_open_layout([1], tf.split, num_splits=2), [(5,)],
     r"Split operand shapes \[\(5,\)\]: Dimension 5 not divisible into 2 "
     r"splits.*\[op: bad_layout\]"),
    (_open_layout([2], tf.squeeze, axis=0), [(2, 3)],
     r"Squeeze operand shapes \[\(2, 3\)\]: Cannot squeeze dim 0 of size "
     r"2.*\[op: bad_layout\]"),
    (_open_layout([1], tf.slice_, begin=[2], size=[4]), [(3,)],
     r"Slice operand shapes \[\(3,\)\]: slice \[2, 6\) is out of bounds "
     r"for dim 0 of size 3.*\[op: bad_layout\]"),
    (_open_layout([None], tf.transpose, perm=[1, 0]), [(3,)],
     r"Transpose operand shapes \[\(3,\)\]: perm \(1, 0\) does not "
     r"permute the axes of rank 1.*\[op: bad_layout\]"),
    (_open_layout([None], tf.reduce_sum, axis=5), [(3,)],
     r"Sum operand shapes \[\(3,\)\]: reduce axis 5 is out of range for "
     r"rank 1.*\[op: bad_layout\]"),
    (_open_layout([None], tf.expand_dims, axis=7), [(3,)],
     r"ExpandDims operand shapes \[\(3,\)\]: expand_dims axis 7 is out of "
     r"range for rank 2.*\[op: bad_layout\]"),
    (_open_layout([1, 1], tf.add_n), [(3,), (1,)],
     r"AddN operand shapes \[\(3,\), \(1,\)\]: Shapes \(3,\) and "
     r"\(1,\) are incompatible.*\[op: bad_layout\]"),
]
_RUNTIME_SHAPE_IDS = [
    "add", "matmul", "matvec", "dot", "reshape", "reshape-infer", "concat",
    "stack", "split", "squeeze", "slice", "transpose", "reduce-axis",
    "expand_dims-axis", "add_n",
]


class TestRuntimeShapeErrors:
    """Shapes unknown at build time: the op's one shape function, run on
    the fed values' specs, raises one typed error naming the op and the
    operand shapes — so the shape-only lane rejects exactly what the
    concrete lane rejects, at the same simulated instant, and eager raises
    the same text."""

    @staticmethod
    def _error(build, feeds, symbolic, fast):
        g = tf.Graph()
        with g.as_default():
            placeholders, fetch = build()
        config = tf.SessionConfig(shape_only=symbolic, executor_fast_path=fast)
        feed = {
            p: SymbolicValue(shape, p.dtype) if symbolic
            else np.ones(shape, p.dtype.np_dtype)
            for p, shape in zip(placeholders, feeds)
        }
        with tf.Session(graph=g, config=config) as sess:
            with pytest.raises(InvalidArgumentError) as info:
                sess.run(fetch, feed_dict=feed)
            return str(info.value), sess.env.now

    @pytest.mark.parametrize("build, feeds, message", _RUNTIME_SHAPE_CASES,
                             ids=_RUNTIME_SHAPE_IDS)
    def test_same_typed_error_in_every_mode(self, build, feeds, message):
        seen = {
            self._error(build, feeds, symbolic, fast)
            for symbolic in (False, True) for fast in (True, False)
        }
        assert len(seen) == 1  # one message, one clock
        assert re.search(message, seen.pop()[0])

    @pytest.mark.parametrize("build, feeds, message", _RUNTIME_SHAPE_CASES,
                             ids=_RUNTIME_SHAPE_IDS)
    def test_eager_raises_the_same_error(self, build, feeds, message):
        g = tf.Graph()
        with g.as_default():
            placeholders, fetch = build()
        values = {p.name: np.ones(shape, p.dtype.np_dtype)
                  for p, shape in zip(placeholders, feeds)}
        ctx = KernelContext(feeds=values, resources=ResourceManager("eager"))
        with pytest.raises(InvalidArgumentError) as info:
            evaluate([fetch], values, ctx)
        assert str(info.value) == self._error(build, feeds, False, True)[0]
        assert re.search(message, str(info.value))

    def test_eager_rejects_with_the_same_class(self):
        ctx = EagerContext()
        with pytest.raises(InvalidArgumentError):
            ctx.add(np.ones(3), np.ones(4))
        with pytest.raises(InvalidArgumentError):
            ctx.matmul(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(InvalidArgumentError):
            ctx.dot(np.ones(3), np.ones(4))

    def test_static_dot_of_unequal_vectors_is_rejected_at_build(self):
        with tf.Graph().as_default():
            with pytest.raises(InvalidArgumentError,
                               match=r"Dot operand shapes \[\(3,\), \(4,\)\]"):
                tf.dot(tf.constant(np.ones(3, np.float32)),
                       tf.constant(np.ones(4, np.float32)))
