"""Tests for wire-format serialisation and payload accounting."""

import numpy as np
import pytest

from repro import nn
from repro.nn import (
    WIRE_DTYPE,
    array_num_bytes,
    deserialize_state,
    payload_num_bytes,
    serialize_state,
)


class TestPayloadBytes:
    def test_array_bytes(self):
        assert array_num_bytes(np.zeros((10, 10))) == 400

    def test_none_is_free(self):
        assert payload_num_bytes(None) == 0

    def test_scalars_count_as_one_float(self):
        assert payload_num_bytes(3.14) == 4
        assert payload_num_bytes(7) == 4

    def test_nested_dict(self):
        payload = {"a": np.zeros(5), "b": {"c": np.zeros((2, 2)), "d": None}}
        assert payload_num_bytes(payload) == (5 + 4) * 4

    def test_lists_and_tuples(self):
        assert payload_num_bytes([np.zeros(2), (np.zeros(3),)]) == 20

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            payload_num_bytes("a string")

    def test_state_dict_size_matches_param_count(self):
        model = nn.build_model("mlp_small", 10, (3, 8, 8), rng=0)
        state = model.state_dict()
        assert payload_num_bytes(state) == model.num_parameters() * WIRE_DTYPE().itemsize


class TestStateSerialisation:
    def test_roundtrip(self):
        state = {
            "weight": np.random.default_rng(0).normal(size=(3, 4)),
            "bias": np.zeros(3),
        }
        restored = deserialize_state(serialize_state(state))
        assert set(restored) == {"weight", "bias"}
        np.testing.assert_allclose(restored["weight"], state["weight"], atol=1e-6)

    def test_float32_precision_on_wire(self):
        state = {"w": np.array([1.0 + 1e-10])}
        restored = deserialize_state(serialize_state(state))
        # wire format is float32: tiny residue is truncated
        assert restored["w"][0] == np.float32(1.0 + 1e-10)

    def test_lossless_roundtrip_with_dtype_none(self):
        # dtype=None keeps native float64: the runtime relies on this to
        # make parallel execution bit-identical to serial
        state = {"w": np.array([1.0 + 1e-10]), "i": np.arange(3)}
        restored = deserialize_state(serialize_state(state, dtype=None), dtype=None)
        assert restored["w"].dtype == np.float64
        assert restored["w"][0] == 1.0 + 1e-10
        assert restored["i"].dtype == state["i"].dtype

    def test_model_roundtrip_through_wire(self):
        a = nn.build_model("mlp_small", 4, (3, 6, 6), feature_dim=8, rng=0)
        b = nn.build_model("mlp_small", 4, (3, 6, 6), feature_dim=8, rng=5)
        blob = serialize_state(a.state_dict())
        b.load_state_dict(deserialize_state(blob))
        x = np.random.default_rng(1).normal(size=(3, 3, 6, 6))
        np.testing.assert_allclose(
            a.predict_logits(x), b.predict_logits(x), atol=1e-4
        )


class TestLosslessCodec:
    """``dtype=None`` is the raw lossless layout the spill store and the
    parallel runtime rely on: every dtype, shape and bit survives, and the
    decoded arrays are ordinary writable, aligned arrays."""

    STATE = {
        "f64": np.random.default_rng(0).normal(size=(3, 4)),
        "f32": np.arange(5, dtype=np.float32) / 3,
        "f16": np.array([1.5, -2.25], dtype=np.float16),
        "i64": np.arange(-3, 3, dtype=np.int64),
        "u8": np.array([0, 255], dtype=np.uint8),
        "bool": np.array([True, False, True]),
        "c128": np.array([1 + 2j, -3.5j]),
        "big_endian": np.arange(4, dtype=">f8"),
        "scalar": np.array(2.5),
        "empty": np.zeros((0, 3), dtype=np.float32),
        "nan_inf": np.array([np.nan, np.inf, -0.0]),
    }

    def _roundtrip(self, state):
        return deserialize_state(serialize_state(state, dtype=None), dtype=None)

    def test_dtypes_shapes_and_bits_survive(self):
        restored = self._roundtrip(self.STATE)
        assert list(restored) == list(self.STATE)
        for key, value in self.STATE.items():
            got = restored[key]
            assert got.dtype == value.dtype, key
            assert got.shape == value.shape, key
            assert got.tobytes() == value.tobytes(), key

    def test_non_contiguous_inputs(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        state = {"transposed": base.T, "strided": base[::2, 1::3]}
        restored = self._roundtrip(state)
        for key, value in state.items():
            np.testing.assert_array_equal(restored[key], value)
            assert restored[key].flags.c_contiguous

    def test_decoded_arrays_are_writable_and_aligned(self):
        for blob in (
            serialize_state(self.STATE, dtype=None),
            bytearray(serialize_state(self.STATE, dtype=None)),
        ):
            restored = deserialize_state(blob, dtype=None)
            for key, value in restored.items():
                assert value.flags.writeable and value.flags.aligned, key
            restored["f64"][0, 0] = 42.0
            assert restored["f32"][0] == 0.0  # arrays do not overlap

    def test_misaligned_buffer_is_copied(self):
        blob = serialize_state({"w": np.arange(3.0)}, dtype=None)
        shifted = memoryview(bytearray(b"\0" + blob))[1:]
        restored = deserialize_state(shifted, dtype=None)
        assert restored["w"].flags.aligned
        np.testing.assert_array_equal(restored["w"], np.arange(3.0))

    def test_empty_state(self):
        assert self._roundtrip({}) == {}

    def test_cast_on_decode(self):
        restored = deserialize_state(
            serialize_state({"i": np.arange(3, dtype=np.int32)}, dtype=None)
        )
        assert restored["i"].dtype == np.float64

    def test_object_arrays_rejected(self):
        with pytest.raises(TypeError):
            serialize_state({"obj": np.array([{}], dtype=object)}, dtype=None)

    def test_foreign_and_truncated_blobs_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            deserialize_state(b"PK\x03\x04 not a state blob")
        blob = serialize_state({"w": np.arange(8.0)}, dtype=None)
        with pytest.raises(ValueError, match="truncated"):
            deserialize_state(blob[:-16], dtype=None)
