"""Shape functions: one per op type, run by the builder and the verifier.

Out-of-range axes and slices used to wrap silently (``axis % rank``) or
record a static shape the kernel then contradicted; they now fail at
build time, and the verifier — running the same function — reports them
when planted on an already-built op.
"""

import numpy as np
import pytest

import repro as tf
from repro.analysis import verify_graph
from repro.errors import InvalidArgumentError


def _x():
    return tf.constant(np.zeros((2, 3), np.float32), name="x")


# (id, good build -> tensor, bad build, attrs planted on the good op)
CASES = [
    ("reduce", lambda: tf.reduce_sum(_x(), axis=1),
     lambda: tf.reduce_sum(_x(), axis=5), {"axis": (5,)}),
    ("reduce-negative", lambda: tf.reduce_max(_x(), axis=-2),
     lambda: tf.reduce_max(_x(), axis=-3), {"axis": (-3,)}),
    ("concat", lambda: tf.concat([_x(), _x()], axis=1),
     lambda: tf.concat([_x(), _x()], axis=7), {"axis": 7}),
    ("split", lambda: tf.split(_x(), 2, axis=0)[0],
     lambda: tf.split(_x(), 2, axis=4), {"axis": 4}),
    ("stack", lambda: tf.stack([_x(), _x()], axis=2),
     lambda: tf.stack([_x(), _x()], axis=3), {"axis": 3}),
    ("squeeze", lambda: tf.squeeze(tf.ones((1, 3)), axis=0),
     lambda: tf.squeeze(tf.ones((1, 3)), axis=4), {"axis": 4}),
    ("expand_dims", lambda: tf.expand_dims(_x(), axis=-3),
     lambda: tf.expand_dims(_x(), axis=3), {"axis": 3}),
    ("slice-past-end", lambda: tf.slice_(tf.constant([1., 2., 3.]), [2], [1]),
     lambda: tf.slice_(tf.constant([1., 2., 3.]), [2], [5]), {"size": (5,)}),
    ("slice-negative-begin",
     lambda: tf.slice_(tf.constant([1., 2., 3.]), [0], [1]),
     lambda: tf.slice_(tf.constant([1., 2., 3.]), [-1], [1]),
     {"begin": (-1,)}),
]


@pytest.mark.parametrize(
    "good,bad,planted", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_out_of_range_attr_rejected_at_build_and_by_verifier(good, bad, planted):
    g = tf.Graph()
    with g.as_default():
        tensor = good()
        built = len(g.operations)
        with pytest.raises(InvalidArgumentError, match="out of (range|bounds)"):
            bad()
        # The rejected op never joined the graph (its inputs did).
        assert all(op.type in ("Const", "Fill") for op in g.operations[built:])
    with tf.Session(graph=g) as sess:
        value = sess.run(tensor)
    assert tensor.shape.as_tuple() == np.asarray(value).shape
    assert verify_graph(g).ok
    tensor.op.attrs.update(planted)
    report = verify_graph(g)
    assert [d.rule for d in report] == ["graph/shape-dtype"]
    assert report.errors[0].op == tensor.op.name


def test_add_n_dtype_message_is_the_same_at_build_and_reverification():
    g = tf.Graph()
    with g.as_default():
        a = tf.constant([1.0, 2.0])
        b = tf.constant([1, 2])
        with pytest.raises(InvalidArgumentError,
                           match="add_n requires uniform dtypes"):
            tf.add_n([a, b])
        total = tf.add_n([a, a], name="total")
    total.op.inputs = (a, b)  # a buggy rewrite rewires an int input in
    (diagnostic,) = verify_graph(g)
    assert diagnostic.rule == "graph/shape-dtype"
    assert "add_n requires uniform dtypes" in diagnostic.message
