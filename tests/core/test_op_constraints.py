"""The registry's kernel override hook (planted-defect tests build on it).

The per-op registration sweep lives in ``test_kernel_parity.py``.
"""

import numpy as np
import pytest

import repro as tf
from repro.core.kernels.registry import get_kernel, override_kernel
from repro.errors import NotFoundError


def test_override_kernel_swaps_and_restores():
    original = get_kernel("Add")

    def fake(op, inputs, ctx):
        return original(op, inputs, ctx)

    with override_kernel("Add", fake) as previous:
        assert previous is original
        assert get_kernel("Add") is fake
    assert get_kernel("Add") is original


def test_override_kernel_restores_on_exception():
    original = get_kernel("Add")
    with pytest.raises(RuntimeError):
        with override_kernel("Add", lambda op, inputs, ctx: None):
            raise RuntimeError("boom")
    assert get_kernel("Add") is original


def test_override_kernel_unknown_op():
    with pytest.raises(NotFoundError):
        with override_kernel("NoSuchOp", lambda op, inputs, ctx: None):
            pass  # pragma: no cover


def _doubled_add():
    original = get_kernel("Add")

    def doubled(op, inputs, ctx):
        return [original(op, inputs, ctx)[0] * 2]

    return doubled


def _add_graph():
    g = tf.Graph()
    with g.as_default():
        c = tf.add(tf.constant(np.float32([1, 2])),
                   tf.constant(np.float32([3, 4])))
    return g, c


def test_override_kernel_changes_execution_results():
    g, c = _add_graph()
    with override_kernel("Add", _doubled_add()):
        with tf.Session(graph=g) as sess:
            assert np.allclose(sess.run(c), [8, 12])
    # Restored kernel, fresh graph: healthy numerics again.
    g2, c2 = _add_graph()
    with tf.Session(graph=g2) as sess:
        assert np.allclose(sess.run(c2), [4, 6])


def test_override_kernel_does_not_invalidate_graph_fold_memos():
    # Constant folding memoizes folded values *on the graph object*, so
    # an override only shows through on graphs first executed under it
    # (why the fuzz harness materializes a fresh graph per cell run).
    g, c = _add_graph()
    with tf.Session(graph=g) as sess:
        assert np.allclose(sess.run(c), [4, 6])
    with override_kernel("Add", _doubled_add()):
        with tf.Session(graph=g) as stale:
            assert np.allclose(stale.run(c), [4, 6])  # memoized fold
        with tf.Session(
            graph=g, config=tf.SessionConfig(graph_optimization=False)
        ) as unfolded:
            assert np.allclose(unfolded.run(c), [8, 12])
