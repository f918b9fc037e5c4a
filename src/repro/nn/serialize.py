"""Wire-format serialisation and payload size accounting.

Federated-learning communication cost in the paper is measured in MB of
float32 payload (model updates, logits, prototypes).  This module turns
arbitrary nested payloads of numpy arrays into flat float32 byte buffers and
measures their size, which :mod:`repro.fl.channel` uses for accounting.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Union

import numpy as np

__all__ = [
    "WIRE_DTYPE",
    "payload_num_bytes",
    "array_num_bytes",
    "serialize_state",
    "deserialize_state",
]

# Everything on the wire is float32, matching the paper's MB arithmetic
# (e.g. its 0.511 MB figure for a ResNet-20-class model update).
WIRE_DTYPE = np.float32

# raw state layout (see serialize_state): magic, then 16-byte alignment
# for the header end and every array, enough for any numpy scalar type
_MAGIC = b"REPROST1"
_ALIGN = 16

Payload = Union[np.ndarray, Dict[str, "Payload"], list, tuple, float, int, None]


def array_num_bytes(array: np.ndarray) -> int:
    """Wire size of one array: float32 elements, shape metadata ignored."""
    return int(np.asarray(array).size) * WIRE_DTYPE().itemsize


def payload_num_bytes(payload: Payload) -> int:
    """Recursively compute the wire size of a nested payload.

    Supported leaves are numpy arrays and python scalars (counted as one
    float32 each); containers may be dicts, lists, or tuples.  ``None``
    contributes zero bytes.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return array_num_bytes(payload)
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        return sum(payload_num_bytes(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(payload_num_bytes(v) for v in payload)
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return WIRE_DTYPE().itemsize
    # objects that know their own wire size (e.g. fl.compression tensors)
    num_bytes = getattr(payload, "num_bytes", None)
    if isinstance(num_bytes, int):
        return num_bytes
    raise TypeError(f"unsupported payload leaf of type {type(payload)!r}")


def _padded(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


def serialize_state(state: Dict[str, np.ndarray], dtype=WIRE_DTYPE) -> bytes:
    """Serialise a state-dict to bytes (raw self-describing layout).

    The blob is ``_MAGIC``, an 8-byte little-endian header length, a JSON
    header listing ``[key, dtype.str, shape]`` per array, then each
    array's C-order bytes.  The header and every array start on a
    ``_ALIGN``-byte boundary, so decoding is zero-parse ``np.frombuffer``
    views rather than a zip container with one ``.npy`` header per array.

    By default arrays are cast to float32, matching the paper's wire-size
    accounting.  Pass ``dtype=None`` to preserve each array's native dtype
    — the lossless mode the parallel runtime and the registry's spill
    store use to move model state without perturbing a single bit.
    """
    arrays = [
        (str(key), np.asarray(value, dtype=dtype, order="C"))
        for key, value in state.items()
    ]
    header = json.dumps(
        [[key, array.dtype.str, list(array.shape)] for key, array in arrays]
    ).encode("utf-8")
    start = _padded(len(_MAGIC) + 8 + len(header))
    parts = [
        _MAGIC,
        len(header).to_bytes(8, "little"),
        header,
        bytes(start - len(_MAGIC) - 8 - len(header)),
    ]
    for _, array in arrays:
        parts.append(array.reshape(-1).view(np.uint8))
        parts.append(bytes(_padded(array.nbytes) - array.nbytes))
    return b"".join(parts)


def deserialize_state(blob, dtype=np.float64) -> Dict[str, np.ndarray]:
    """Inverse of :func:`serialize_state`; casts arrays to ``dtype``.

    The float64 default matches the training substrate's precision.  Pass
    ``dtype=None`` to keep exactly the stored dtypes (lossless round trip
    with ``serialize_state(state, dtype=None)``).  Returned arrays are
    always writable: a read-only or misaligned ``blob`` (e.g. ``bytes``)
    is copied once into an aligned buffer and the arrays are views of it;
    a writable, aligned ``bytearray`` is viewed without a copy.
    """
    data = np.frombuffer(blob, dtype=np.uint8)
    if data[: len(_MAGIC)].tobytes() != _MAGIC:
        raise ValueError("not a serialised state (bad magic bytes)")
    if not data.flags.writeable or data.ctypes.data % _ALIGN:
        data = data.copy()
    header_len = int.from_bytes(data[len(_MAGIC) : len(_MAGIC) + 8], "little")
    header_end = len(_MAGIC) + 8 + header_len
    entries = json.loads(data[len(_MAGIC) + 8 : header_end].tobytes())
    offset = _padded(header_end)
    state: Dict[str, np.ndarray] = {}
    for key, dtype_str, shape in entries:
        stored = np.dtype(dtype_str)
        count = math.prod(shape)
        nbytes = count * stored.itemsize
        if offset + nbytes > data.size:
            raise ValueError(f"serialised state truncated at array '{key}'")
        array = data[offset : offset + nbytes].view(stored).reshape(shape)
        state[key] = array if dtype is None else array.astype(dtype)
        offset += _padded(nbytes)
    return state
