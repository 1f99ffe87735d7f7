"""Wire-format tests: varints and tensors."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as tf
from repro.core import serialization as ser
from repro.core.tensor import SymbolicValue
from repro.errors import DataLossError


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63 - 1])
    def test_roundtrip(self, value):
        encoded = ser.encode_varint(value)
        assert ser.decode_varint(io.BytesIO(encoded)) == value

    def test_negative_rejected(self):
        with pytest.raises(Exception):
            ser.encode_varint(-1)

    def test_truncated_raises(self):
        encoded = ser.encode_varint(300)
        with pytest.raises(DataLossError):
            ser.decode_varint(io.BytesIO(encoded[:1]))

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip(self, value):
        assert ser.decode_varint(io.BytesIO(ser.encode_varint(value))) == value


class TestTensorSerialization:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32,
                                       np.int64, np.complex128, np.bool_])
    def test_roundtrip_dtypes(self, dtype):
        rng = np.random.default_rng(0)
        arr = (rng.normal(size=(3, 4)) > 0).astype(dtype)
        restored = ser.deserialize_tensor(ser.serialize_tensor(arr))
        np.testing.assert_array_equal(restored, arr)
        assert restored.dtype == arr.dtype

    def test_scalar_roundtrip(self):
        arr = np.float64(3.14)
        restored = ser.deserialize_tensor(ser.serialize_tensor(arr))
        assert restored == pytest.approx(3.14)

    def test_symbolic_roundtrip(self):
        spec = SymbolicValue((1024, 1024), tf.float32)
        restored = ser.deserialize_tensor(ser.serialize_tensor(spec))
        assert restored == spec

    def test_corrupt_payload(self):
        data = ser.serialize_tensor(np.zeros(4, np.float32))
        with pytest.raises(DataLossError):
            ser.deserialize_tensor(data[:-3])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, values):
        arr = np.array(values, dtype=np.float64)
        restored = ser.deserialize_tensor(ser.serialize_tensor(arr))
        np.testing.assert_array_equal(restored, arr)
