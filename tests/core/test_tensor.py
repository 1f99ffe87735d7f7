"""Unit tests for TensorShape, Tensor handles, and SymbolicValue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as tf
from repro import dtypes
from repro.core.tensor import SymbolicValue, TensorShape, as_shape, value_nbytes
from repro.errors import InvalidArgumentError


class TestTensorShape:
    def test_fully_defined(self):
        s = TensorShape([2, 3])
        assert s.is_fully_defined
        assert s.rank == 2
        assert s.num_elements() == 6
        assert s.as_tuple() == (2, 3)

    def test_partial(self):
        s = TensorShape([None, 3])
        assert not s.is_fully_defined
        assert s.rank == 2
        assert s.num_elements() is None
        with pytest.raises(InvalidArgumentError):
            s.as_tuple()

    def test_unknown_rank(self):
        s = TensorShape(None)
        assert s.rank is None
        with pytest.raises(InvalidArgumentError):
            len(s)
        with pytest.raises(InvalidArgumentError):
            s.as_list()

    def test_negative_dim_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TensorShape([-2])

    def test_compatibility(self):
        assert TensorShape([None, 3]).is_compatible_with(TensorShape([2, 3]))
        assert TensorShape(None).is_compatible_with(TensorShape([7]))
        assert not TensorShape([2, 3]).is_compatible_with(TensorShape([2, 4]))
        assert not TensorShape([2]).is_compatible_with(TensorShape([2, 1]))

    def test_merge(self):
        merged = TensorShape([None, 3]).merge_with(TensorShape([2, None]))
        assert merged == TensorShape([2, 3])

    def test_merge_incompatible_raises(self):
        with pytest.raises(InvalidArgumentError):
            TensorShape([2]).merge_with(TensorShape([3]))

    def test_concatenate(self):
        assert TensorShape([2]).concatenate(TensorShape([3, 4])) == TensorShape([2, 3, 4])
        assert TensorShape(None).concatenate(TensorShape([3])).rank is None

    def test_indexing_and_slicing(self):
        s = TensorShape([2, None, 4])
        assert s[0] == 2
        assert s[1] is None
        assert s[1:] == TensorShape([None, 4])

    def test_equality_with_lists(self):
        assert TensorShape([2, 3]) == [2, 3]
        assert as_shape((5,)) == TensorShape([5])

    def test_str(self):
        assert str(TensorShape([2, None])) == "(2, ?)"
        assert str(TensorShape(None)) == "<unknown>"

    @given(dims=st.lists(st.integers(min_value=0, max_value=64), max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_property_merge_idempotent(self, dims):
        s = TensorShape(dims)
        assert s.merge_with(s) == s
        assert s.is_compatible_with(s)


class TestTensorHandle:
    def test_name_and_metadata(self):
        g = tf.Graph()
        with g.as_default():
            c = tf.constant([[1.0, 2.0]])
        assert c.name.endswith(":0")
        assert c.dtype is dtypes.float32
        assert c.shape == TensorShape([1, 2])
        assert c.graph is g

    def test_name_is_stored_once_and_resolves_back(self):
        g = tf.Graph()
        with g.as_default():
            with g.name_scope("outer"):
                with g.name_scope("inner"):
                    scoped = tf.constant(1.0, name="c")
            first = tf.constant(2.0, name="dup")
            second = tf.constant(3.0, name="dup")
            parts = tf.split(tf.constant(np.arange(6.0)), 3, name="parts")
        assert scoped.name == "outer/inner/c:0"
        assert (first.name, second.name) == ("dup:0", "dup_1:0")
        assert [p.name for p in parts] == ["parts:0", "parts:1", "parts:2"]
        for op in g.operations:
            for t in op.outputs:
                assert t.name == f"{t.op.name}:{t.value_index}"
                assert t.name is t.name  # a stored string, not a format per read
                assert g.get_tensor_by_name(t.name) is t
                assert not hasattr(t, "__dict__")

    def test_operator_overloads_build_ops(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(2.0)
            b = tf.constant(3.0)
            ops_made = {
                (a + b).op.type: "Add",
                (a - b).op.type: "Sub",
                (a * b).op.type: "Mul",
                (a / b).op.type: "Div",
                (-a).op.type: "Neg",
            }
        for actual, expected in ops_made.items():
            assert actual == expected

    def test_matmul_operator(self):
        g = tf.Graph()
        with g.as_default():
            a = tf.constant(np.eye(2, dtype=np.float32))
            b = tf.constant(np.ones((2, 2), dtype=np.float32))
            c = a @ b
        assert c.op.type == "MatMul"

    def test_no_truth_value(self):
        g = tf.Graph()
        with g.as_default():
            c = tf.constant(1.0)
        with pytest.raises(TypeError):
            bool(c)

    def test_set_shape_refines(self):
        g = tf.Graph()
        with g.as_default():
            p = tf.placeholder(tf.float32, shape=[None, 4])
            p.set_shape([2, 4])
        assert p.shape == TensorShape([2, 4])

    def test_set_shape_conflict_raises(self):
        g = tf.Graph()
        with g.as_default():
            p = tf.placeholder(tf.float32, shape=[3])
        with pytest.raises(InvalidArgumentError):
            p.set_shape([4])


class TestSymbolicValue:
    def test_metadata(self):
        v = SymbolicValue((4, 8), dtypes.float64)
        assert v.size == 32
        assert v.nbytes == 256
        assert v.ndim == 2

    def test_of_ndarray(self):
        spec = SymbolicValue.of(np.zeros((2, 2), dtype=np.complex128))
        assert spec == SymbolicValue((2, 2), dtypes.complex128)

    def test_of_is_idempotent(self):
        v = SymbolicValue((3,), dtypes.int32)
        assert SymbolicValue.of(v) is v

    def test_value_nbytes(self):
        assert value_nbytes(np.zeros(10, dtype=np.float32)) == 40
        assert value_nbytes(SymbolicValue((10,), dtypes.float32)) == 40

    @pytest.mark.parametrize("shape, dtype, size, nbytes", [
        ((), dtypes.float64, 1, 8),                       # rank 0
        ((0,), dtypes.float32, 0, 0),                     # zero-sized
        ((3, 0, 5), dtypes.complex128, 0, 0),
        ((7,), dtypes.int32, 7, 28),
        ((65536, 65536), dtypes.float64, 2 ** 32, 2 ** 35),  # paper scale
        ((2 ** 40, 2 ** 30), dtypes.float32, 2 ** 70, 2 ** 72),  # > int64
    ])
    def test_size_and_nbytes(self, shape, dtype, size, nbytes):
        v = SymbolicValue(shape, dtype)
        assert (v.size, v.nbytes, v.ndim) == (size, nbytes, len(shape))
        assert type(v.nbytes) is int
        assert value_nbytes(v) == nbytes

    def test_equality_and_hash_are_by_shape_and_dtype(self):
        v = SymbolicValue([np.int64(2), 3], "float32")  # coerced dims/dtype
        same = SymbolicValue((2, 3), dtypes.float32)
        assert v == same and hash(v) == hash(same)
        assert v.shape == (2, 3) and all(type(d) is int for d in v.shape)
        assert hash(v) == hash(((2, 3), dtypes.float32))
        assert v != SymbolicValue((3, 2), dtypes.float32)
        assert v != SymbolicValue((2, 3), dtypes.float64)
        assert SymbolicValue((4,), dtypes.float32) != SymbolicValue(
            (2,), dtypes.float64)  # equal nbytes, different spec
        assert v != (2, 3)
        assert len({v, same, SymbolicValue((), dtypes.float32)}) == 2


class _Tagged(np.ndarray):
    """A trivial ndarray subclass."""


def _read_only(arr):
    arr.setflags(write=False)
    return arr


# Everything that can reach "what is this value's spec": arrays in every
# layout NumPy hands out, NumPy scalars, Python literals, and the widths
# ``as_dtype`` maps onto a supported one.
SPEC_VALUES = {
    "c_order": np.arange(6.0).reshape(2, 3),
    "f_order": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    "non_contiguous_view": np.arange(24, dtype=np.int32).reshape(4, 6)[::2, 1::2],
    "rank_0": np.array(2.5, dtype=np.float32),
    "zero_sized": np.zeros((3, 0, 5), dtype=np.complex128),
    "read_only": _read_only(np.ones((2, 2), dtype=np.int64)),
    "subclass": np.ones((3, 2), dtype=np.float32).view(_Tagged),
    "np_float64": np.float64(3),
    "np_bool": np.bool_(True),
    "py_float": 3.0,
    "py_bool": True,
    "py_list": [1, 2, 3],
    "float16": np.ones((4,), dtype=np.float16),
    "uint8": np.ones((2, 5), dtype=np.uint8),
    "int16": np.ones((3,), dtype=np.int16),
}


class TestSpecIsReadOffTheValue:
    """``SymbolicValue.of`` / ``value_nbytes`` answer from what NumPy
    already describes; the answers are the ones the slow route —
    ``np.asarray``, then a spec rebuilt through ``SymbolicValue.__init__``
    and ``as_dtype`` — gives."""

    @pytest.mark.parametrize("name", sorted(SPEC_VALUES))
    def test_matches_the_rebuilt_spec(self, name):
        value = SPEC_VALUES[name]
        arr = np.asarray(value)
        rebuilt = SymbolicValue(arr.shape, dtypes.as_dtype(arr.dtype))
        spec = SymbolicValue.of(value)
        assert spec.shape == rebuilt.shape
        assert type(spec.shape) is tuple
        assert all(type(d) is int for d in spec.shape)
        assert spec.dtype is rebuilt.dtype
        assert (spec.nbytes, spec.size) == (rebuilt.nbytes, rebuilt.size)
        assert type(spec.nbytes) is int
        assert spec == rebuilt and hash(spec) == hash(rebuilt)
        assert value_nbytes(value) == int(arr.nbytes)
        assert type(value_nbytes(value)) is int

    def test_unsupported_dtype_is_still_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SymbolicValue.of(np.array(["a", "b"]))
