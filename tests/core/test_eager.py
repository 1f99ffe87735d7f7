"""Eager execution mode."""

import numpy as np
import pytest

from repro import eager
from repro.errors import InvalidArgumentError, UnimplementedError


@pytest.fixture()
def ctx():
    return eager.EagerContext(seed=7)


class TestEagerMath:
    def test_arithmetic(self, ctx):
        a = ctx.constant([1.0, 2.0])
        b = ctx.constant([3.0, 4.0])
        np.testing.assert_allclose(ctx.add(a, b), [4.0, 6.0])
        np.testing.assert_allclose(ctx.subtract(a, b), [-2.0, -2.0])
        np.testing.assert_allclose(ctx.multiply(a, b), [3.0, 8.0])
        np.testing.assert_allclose(ctx.divide(b, a), [3.0, 2.0])

    def test_matmul_matches_numpy(self, ctx):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 5)).astype(np.float64)
        b = rng.normal(size=(5, 2)).astype(np.float64)
        np.testing.assert_allclose(ctx.matmul(a, b), a @ b)
        np.testing.assert_allclose(
            ctx.matmul(a, a, transpose_b=True), a @ a.T
        )

    def test_dot_and_reductions(self, ctx):
        x = np.arange(6, dtype=np.float64)
        assert ctx.dot(x, x) == pytest.approx(np.dot(x, x))
        m = x.reshape(2, 3)
        np.testing.assert_allclose(ctx.reduce_sum(m, axis=0), m.sum(axis=0))
        assert ctx.reduce_sum(m) == pytest.approx(m.sum())

    def test_sqrt(self, ctx):
        np.testing.assert_allclose(ctx.sqrt(np.array([4.0, 9.0])), [2.0, 3.0])

    def test_fft_roundtrip(self, ctx):
        rng = np.random.default_rng(1)
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        np.testing.assert_allclose(ctx.fft(x), np.fft.fft(x), atol=1e-12)
        np.testing.assert_allclose(ctx.ifft(ctx.fft(x)), x, atol=1e-12)


class TestEagerRandom:
    def test_shapes_and_ranges(self, ctx):
        u = ctx.random_uniform([50], minval=1.0, maxval=2.0)
        assert u.shape == (50,)
        assert u.min() >= 1.0 and u.max() < 2.0

    def test_successive_calls_differ(self, ctx):
        a = ctx.random_uniform([16])
        b = ctx.random_uniform([16])
        assert not np.array_equal(a, b)

    def test_same_seed_reproduces(self):
        c1 = eager.EagerContext(seed=3)
        c2 = eager.EagerContext(seed=3)
        np.testing.assert_array_equal(
            c1.random_normal([8]), c2.random_normal([8])
        )


class TestEagerVariables:
    def test_variable_lifecycle(self, ctx):
        handle = ctx.variable(np.zeros(3), name="state")
        np.testing.assert_allclose(ctx.read(handle), [0, 0, 0])
        ctx.assign_add(handle, np.ones(3))
        ctx.assign_add(handle, np.ones(3))
        np.testing.assert_allclose(ctx.read(handle), [2, 2, 2])
        ctx.assign(handle, np.full(3, 9.0))
        np.testing.assert_allclose(ctx.read(handle), [9, 9, 9])

    def test_read_is_read_only(self, ctx):
        """``read`` hands out the stored array itself, as a Session's
        variable read does: writing to it, or to a slice of it, raises."""
        source = np.zeros(3)
        handle = ctx.variable(source, name="state")
        source += 1  # the initial value was copied
        for update in (None, ctx.assign, ctx.assign_add):
            if update is not None:
                update(handle, np.ones(3))
            for value in (ctx.read(handle), ctx.slice_(ctx.read(handle),
                                                      [0], [2])):
                with pytest.raises(ValueError, match="read-only"):
                    value += 1
        np.testing.assert_array_equal(ctx.read(handle), [2, 2, 2])

    def test_duplicate_name_rejected(self, ctx):
        ctx.variable(1.0, name="v")
        with pytest.raises(InvalidArgumentError):
            ctx.variable(2.0, name="v")

    def test_unknown_handle(self, ctx):
        with pytest.raises(InvalidArgumentError):
            ctx.read("ghost")


class TestRegistryDrivenCoverage:
    """Coverage comes from the kernel registry, not a hand whitelist."""

    def test_flat_namespace_ops_available(self, ctx):
        np.testing.assert_allclose(
            ctx.reshape(np.arange(6.0), [2, 3]).shape, (2, 3))
        np.testing.assert_allclose(
            ctx.concat([np.ones(2), np.zeros(2)], axis=0), [1, 1, 0, 0])
        np.testing.assert_allclose(ctx.zeros([2]), [0, 0])
        np.testing.assert_allclose(
            ctx.maximum(np.array([1.0, 5.0]), np.array([3.0, 2.0])), [3, 5])
        np.testing.assert_allclose(
            ctx.add_n([np.ones(2), np.ones(2)]), [2, 2])
        assert ctx.no_op() is None

    def test_unknown_op_raises_attribute_error(self, ctx):
        with pytest.raises(AttributeError):
            ctx.definitely_not_an_op

    def test_user_arrays_not_frozen_or_mutated(self, ctx):
        a = np.eye(3)
        ctx.matmul(a, a)
        assert a.flags.writeable

    def test_arrays_in_list_arguments_not_frozen(self, ctx):
        a = np.ones(2)
        b = np.zeros(2)
        ctx.concat([a, b], axis=0)
        ctx.add_n([a, b])
        ctx.stack([a, b])
        a += 1  # would raise ValueError if concat had frozen the array
        np.testing.assert_allclose(a, [2.0, 2.0])

    def test_stateful_graph_objects_rejected(self, ctx):
        with pytest.raises(UnimplementedError):
            ctx.Variable(1.0)
        with pytest.raises(UnimplementedError):
            ctx.FIFOQueue(2, [np.float32], shapes=[[]])


class TestEagerLimits:
    def test_graph_only_ops_rejected(self, ctx):
        with pytest.raises(UnimplementedError):
            ctx.execute("QueueDequeue")
        with pytest.raises(UnimplementedError):
            ctx.execute("IteratorGetNext")
        with pytest.raises(UnimplementedError):
            ctx.execute("ReadTile")

    def test_eager_matches_graph_mode(self, ctx):
        """The same kernels back both modes: results agree exactly."""
        import repro as tf

        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)).astype(np.float32)
        eager_result = ctx.matmul(a, a)
        g = tf.Graph()
        with g.as_default():
            graph_result_t = tf.matmul(tf.constant(a), tf.constant(a))
        with tf.Session(graph=g) as sess:
            graph_result = sess.run(graph_result_t)
        np.testing.assert_array_equal(eager_result, graph_result)

    @pytest.mark.parametrize("declared", [1, 3])
    def test_a_kernel_spec_op_delivers_every_declared_output(self, ctx,
                                                             declared):
        """A two-rank allreduce delivers two outputs, whatever the caller
        declared: neither the second is dropped nor a third invented."""
        with pytest.raises(
                InvalidArgumentError,
                match=rf"^CollectiveAllReduce delivered 2 outputs; it "
                      rf"declares {declared} \[op: CollectiveAllReduce\]$"):
            ctx.execute("CollectiveAllReduce", [np.ones(2), np.ones(2)],
                        attrs={"world": 2},
                        output_dtypes=[np.float64] * declared)
