"""FIFO queues and the Dataset input pipeline."""

import numpy as np
import pytest

import repro as tf
from repro.core.ops.data_ops import Dataset
from repro.core.tensor import SymbolicValue, value_nbytes
from repro.errors import InvalidArgumentError, OutOfRangeError


class TestFIFOQueue:
    def test_enqueue_dequeue_order(self):
        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(8, [tf.float32], shapes=[[]])
            x = tf.placeholder(tf.float32, shape=[])
            enq = q.enqueue(x)
            deq = q.dequeue()
        with tf.Session(graph=g) as sess:
            for value in (1.0, 2.0, 3.0):
                sess.run(enq, feed_dict={x: value})
            assert [sess.run(deq) for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_queue_size(self):
        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(8, [tf.float32], shapes=[[]])
            enq = q.enqueue(tf.constant(1.0))
            size = q.size()
        with tf.Session(graph=g) as sess:
            assert sess.run(size) == 0
            sess.run(enq)
            sess.run(enq)
            assert sess.run(size) == 2

    def test_multi_component(self):
        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(4, [tf.int64, tf.float64], shapes=[[], [2]])
            enq = q.enqueue([
                tf.constant(7, dtype=tf.int64),
                tf.constant(np.array([1.5, 2.5])),
            ])
            idx, vec = q.dequeue()
        with tf.Session(graph=g) as sess:
            sess.run(enq)
            i, v = sess.run([idx, vec])
        assert i == 7
        np.testing.assert_allclose(v, [1.5, 2.5])

    def test_dequeue_blocks_until_enqueue(self):
        """A dequeue issued first must wait for a later enqueue."""
        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(4, [tf.float32], shapes=[[]])
            enq = q.enqueue(tf.constant(5.0))
            deq = q.dequeue()
        sess = tf.Session(graph=g)
        env = sess.env
        results = {}

        def consumer():
            value = yield from sess.run_gen(deq)
            results["value"] = value
            results["time"] = env.now

        def producer():
            yield env.timeout(1.0)
            yield from sess.run_gen(enq)

        env.process(consumer())
        env.process(producer())
        env.run()
        assert results["value"] == pytest.approx(5.0)
        assert results["time"] >= 1.0

    def test_close_drains_then_out_of_range(self):
        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(4, [tf.float32], shapes=[[]])
            enq = q.enqueue(tf.constant(1.0))
            deq = q.dequeue()
            close = q.close()
        with tf.Session(graph=g) as sess:
            sess.run(enq)
            sess.run(close)
            assert sess.run(deq) == pytest.approx(1.0)  # drains
            with pytest.raises(OutOfRangeError):
                sess.run(deq)

    def test_enqueue_after_close_cancelled(self):
        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(4, [tf.float32], shapes=[[]])
            enq = q.enqueue(tf.constant(1.0))
            close = q.close()
        with tf.Session(graph=g) as sess:
            sess.run(close)
            with pytest.raises(tf.errors.CancelledError):
                sess.run(enq)

    def test_component_count_mismatch(self):
        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(4, [tf.float32, tf.float32])
            with pytest.raises(InvalidArgumentError):
                q.enqueue(tf.constant(1.0))

    def test_dtype_mismatch(self):
        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(4, [tf.float32], shapes=[[]])
            with pytest.raises(InvalidArgumentError):
                q.enqueue(tf.constant(1.0, dtype=tf.float64))

    def test_enqueue_of_a_static_shape_the_queue_does_not_declare(self):
        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(4, [tf.float32], shapes=[(2,)], name="pairs")
            with pytest.raises(
                    InvalidArgumentError,
                    match=r"enqueue component 0 of queue 'pairs' has shape "
                          r"\(3,\); the queue declares \(2,\)"):
                q.enqueue(tf.constant(np.ones(3, np.float32)))

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "reference"])
    def test_enqueue_of_a_fed_shape_the_queue_does_not_declare(self, fast):
        # A (3,) element once came back out of a [(2,)] queue as a (2,)
        # tensor holding (3,) data.
        g = tf.Graph()
        with g.as_default():
            q = tf.FIFOQueue(4, [tf.float32], shapes=[(2,)], name="pairs")
            x = tf.placeholder(tf.float32, [None])
            enq = q.enqueue(x)
            deq = q.dequeue()
        with tf.Session(graph=g, config=tf.SessionConfig(
                executor_fast_path=fast)) as sess:
            with pytest.raises(
                    InvalidArgumentError,
                    match=r"enqueue component 0 of queue 'pairs' has shape "
                          r"\(3,\); the queue declares \(2,\) "
                          r"\[op: pairs/enqueue\]"):
                sess.run(enq, feed_dict={x: np.ones(3, np.float32)})
            sess.run(enq, feed_dict={x: np.full(2, 4.0, np.float32)})
            np.testing.assert_array_equal(sess.run(deq), [4.0, 4.0])

    def test_shared_name_shares_state(self):
        g = tf.Graph()
        with g.as_default():
            q1 = tf.FIFOQueue(4, [tf.float32], shapes=[[]], shared_name="shared")
            q2 = tf.FIFOQueue(4, [tf.float32], shapes=[[]], shared_name="shared")
            enq = q1.enqueue(tf.constant(3.0))
            deq = q2.dequeue()
        with tf.Session(graph=g) as sess:
            sess.run(enq)
            assert sess.run(deq) == pytest.approx(3.0)


class TestDataset:
    def test_from_tensor_slices_single(self):
        data = np.arange(5, dtype=np.int64)
        ds = Dataset.from_tensor_slices(data)
        assert [int(x) for x in ds.as_python_list()] == [0, 1, 2, 3, 4]

    def test_from_tensor_slices_tuple(self):
        idx = np.arange(3, dtype=np.int64)
        vals = np.array([[1.0], [2.0], [3.0]])
        ds = Dataset.from_tensor_slices((idx, vals))
        elements = ds.as_python_list()
        assert len(elements) == 3
        assert int(elements[1][0]) == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Dataset.from_tensor_slices((np.arange(3), np.arange(4)))

    def test_shard_partitions_disjointly(self):
        ds = Dataset.range(10)
        shards = [ds.shard(3, i).as_python_list() for i in range(3)]
        flattened = sorted(int(x) for shard in shards for x in shard)
        assert flattened == list(range(10))
        assert [int(x) for x in shards[1]] == [1, 4, 7]

    def test_shard_bad_index(self):
        with pytest.raises(InvalidArgumentError):
            Dataset.range(10).shard(3, 3)

    def test_repeat_and_take(self):
        ds = Dataset.range(2).repeat(3)
        assert [int(x) for x in ds.as_python_list()] == [0, 1, 0, 1, 0, 1]
        assert len(Dataset.range(100).take(7).as_python_list()) == 7

    def test_map(self):
        ds = Dataset.range(4).map(
            lambda x: np.asarray(x * 2, dtype=np.int64),
            element_spec=[(tf.int64, [])],
        )
        assert [int(x) for x in ds.as_python_list()] == [0, 2, 4, 6]

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "reference"])
    def test_map_whose_element_spec_is_wrong_is_rejected(self, fast):
        # map cannot trace its function, so the caller states the spec;
        # an element that contradicts it is the caller's bad argument.
        g = tf.Graph()
        with g.as_default():
            ds = Dataset.range(4).map(
                lambda x: np.full(2, x, dtype=np.int64),
                element_spec=[(tf.int64, [])],
            )
            nxt = ds.make_one_shot_iterator(name="it").get_next()
            doubled = nxt * 2
        with tf.Session(graph=g, config=tf.SessionConfig(
                executor_fast_path=fast)) as sess:
            with pytest.raises(
                    InvalidArgumentError,
                    match=r"IteratorGetNext delivered output 0 as int64 "
                          r"\(2,\), incompatible with its declared int64 \(\) "
                          r"\[op: it/get_next\]"):
                sess.run(doubled)

    @pytest.mark.parametrize("fast", [True, False],
                             ids=["fast-path", "reference"])
    @pytest.mark.parametrize("fn,declared,delivered", [
        (lambda x: (x, 2 * x), 1, 2),
        (lambda x: x, 2, 1),
    ], ids=["undeclared-component", "missing-component"])
    def test_map_delivering_a_different_component_count_is_rejected(
            self, fast, fn, declared, delivered):
        # [None, 2] leaves the op unpriced, so the count is checked when
        # the element arrives: a component is never silently dropped,
        # and a missing one is not an IndexError downstream.
        g = tf.Graph()
        with g.as_default():
            ds = Dataset.from_tensor_slices(
                np.arange(6.0).reshape(3, 2)).batch(2).map(
                    fn, element_spec=[(tf.float64, [None, 2])] * declared)
            nxt = ds.make_one_shot_iterator(name="it").get_next()
        with tf.Session(graph=g, config=tf.SessionConfig(
                executor_fast_path=fast)) as sess:
            with pytest.raises(
                    InvalidArgumentError,
                    match=rf"^IteratorGetNext delivered {delivered} outputs; "
                          rf"it declares {declared} \[op: it/get_next\]$"):
                sess.run(nxt)

    def test_batch(self):
        ds = Dataset.range(5).batch(2)
        batches = ds.as_python_list()
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_batch_drop_remainder(self):
        ds = Dataset.range(5).batch(2, drop_remainder=True)
        assert len(ds.as_python_list()) == 2

    def test_iterator_get_next_in_session(self):
        g = tf.Graph()
        with g.as_default():
            ds = Dataset.range(3)
            nxt = ds.make_one_shot_iterator().get_next()
        with tf.Session(graph=g) as sess:
            values = [int(sess.run(nxt)) for _ in range(3)]
            assert values == [0, 1, 2]
            with pytest.raises(OutOfRangeError):
                sess.run(nxt)

    def test_two_iterators_are_independent(self):
        g = tf.Graph()
        with g.as_default():
            ds = Dataset.range(3)
            n1 = ds.make_one_shot_iterator().get_next()
            n2 = ds.make_one_shot_iterator().get_next()
        with tf.Session(graph=g) as sess:
            assert int(sess.run(n1)) == 0
            assert int(sess.run(n2)) == 0  # fresh iterator state
            assert int(sess.run(n1)) == 1

    def test_multicomponent_get_next(self):
        g = tf.Graph()
        with g.as_default():
            ds = Dataset.from_tensor_slices(
                (np.arange(2, dtype=np.int64), np.array([10.0, 20.0]))
            )
            idx, val = ds.make_one_shot_iterator().get_next()
        with tf.Session(graph=g) as sess:
            i, v = sess.run([idx, val])
        assert int(i) == 0 and float(v) == 10.0

    @pytest.mark.parametrize("pipeline", [
        lambda ds: ds,
        lambda ds: ds.shard(2, 1).repeat(2).batch(2),
    ], ids=["plain", "shard-repeat-batch"])
    @pytest.mark.parametrize("np_dtype", [np.float16, np.uint8, np.int16])
    def test_an_element_is_delivered_in_its_declared_dtype(self, np_dtype,
                                                           pipeline):
        single = np.arange(12).reshape(6, 2).astype(np_dtype)
        other = np.arange(6).astype(np_dtype)
        before = single.copy()
        g = tf.Graph()
        with g.as_default():
            one = pipeline(Dataset.from_tensor_slices(single))
            two = pipeline(Dataset.from_tensor_slices((single, other)))
            tensors = [one.make_one_shot_iterator().get_next(),
                       *two.make_one_shot_iterator().get_next()]
        with tf.Session(graph=g) as sess:
            values = sess.run(tensors)
        for tensor, value in zip(tensors, values):
            assert tensor.dtype.np_dtype != np_dtype  # mapped to a lane width
            assert value.dtype == tensor.dtype.np_dtype
            assert SymbolicValue.of(value).nbytes == value_nbytes(value)
        np.testing.assert_array_equal(values[0], values[1])
        assert single.dtype == np_dtype
        np.testing.assert_array_equal(single, before)
