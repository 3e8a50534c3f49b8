"""Length-prefixed frame protocol of the distributed plane.

Every message between a driver and a worker node — over a TCP socket or
a subprocess stdio pipe — is one *frame*:

``[8-byte big-endian body length] [b"J"] [4-byte big-endian JSON length]
[JSON] [array buffers]``

The JSON is the message tree: lists (tuples travel as lists), dicts with
string keys, strings, numbers (numpy scalars included), booleans and
``null``.  Each ndarray becomes ``{"__nd__": [index, dtype, shape]}``
and its raw C-order bytes follow the JSON, in index order.

No frame can run code: decoding builds JSON values and fresh arrays of
an allowlisted numeric dtype (:data:`DTYPES`), checks every buffer
against the body's bounds and raises :class:`ProtocolError` for anything
malformed.  Encoding refuses what JSON would silently rewrite (non-string
dict keys, the reserved ``__nd__`` key, any other type) with
:class:`ProtocolError` before a byte is written.

Messages (positional lists):

- ``["ping"]`` → ``["pong", info_dict]``
- ``["call", task_name, {name: array}, args]`` → ``["ok", result]`` or
  ``["err", kind, message, traceback]``, ``kind`` one of ``"task"``,
  ``"unknown-task"`` or ``"protocol"`` (a request of the wrong shape)
- ``["shutdown"]`` → ``["bye"]`` and the worker exits.

Workers run only allowlisted task names (:mod:`repro.dist.registry`);
the protocol never ships callables (``docs/distributed.md``).
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, BinaryIO, List, Optional

import numpy as np

from repro.dist.errors import ProtocolError

#: Frame header: body byte length (excludes the header itself).
HEADER = struct.Struct(">Q")

#: Body prefix: the format byte, then the JSON byte length.
PREFIX = struct.Struct(">cI")

#: The one body format; any other first byte is refused.
FORMAT = b"J"

#: Hard ceiling on one frame (16 GiB); anything larger is a corrupt
#: header, not a plausible shard payload.
MAX_FRAME_BYTES = 1 << 34

#: The dict key that marks an array in the JSON tree.
ND_KEY = "__nd__"

#: The array dtypes a frame may carry, as ``dtype.str``.
DTYPES = frozenset(
    np.dtype(name).str
    for name in "bool int8 int16 int32 int64 uint8 uint16 uint32 uint64 "
    "float32 float64".split()
)

#: Largest single read, so a lying length header cannot make the reader
#: allocate more than the bytes that actually arrive.
_READ_CHUNK = 1 << 24


def _lower(obj: Any, buffers: List[np.ndarray]) -> Any:
    """``obj`` as a JSON tree; arrays become markers into ``buffers``."""
    if obj is None or isinstance(obj, (str, bool, int, float)):
        return obj
    if isinstance(obj, np.ndarray):
        if obj.dtype.str not in DTYPES:
            raise ProtocolError(f"cannot encode an array of dtype {obj.dtype}")
        buffers.append(np.ascontiguousarray(obj))
        return {ND_KEY: [len(buffers) - 1, obj.dtype.str, list(obj.shape)]}
    if isinstance(obj, (list, tuple)):
        return [_lower(item, buffers) for item in obj]
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str) or key == ND_KEY:
                raise ProtocolError(f"cannot encode the dict key {key!r}")
        return {key: _lower(value, buffers) for key, value in obj.items()}
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    raise ProtocolError(f"cannot encode a {type(obj).__name__}")


def encode(message: Any) -> bytes:
    """One message as a complete frame (length header included)."""
    buffers: List[np.ndarray] = []
    try:
        text = json.dumps(_lower(message, buffers), separators=(",", ":")).encode()
    except RecursionError:
        raise ProtocolError("message nests too deeply to encode") from None
    if len(text) >= 1 << 32:
        raise ProtocolError(f"JSON of {len(text)} bytes is too long")
    length = PREFIX.size + len(text) + sum(array.nbytes for array in buffers)
    prefix = HEADER.pack(length) + PREFIX.pack(FORMAT, len(text))
    return b"".join([prefix, text, *buffers])


def decode(body: bytes) -> Any:
    """One frame body (after the length header) back to its message."""
    if body[:1] != FORMAT:
        raise ProtocolError(f"unknown frame format {body[:1]!r}, expected {FORMAT!r}")
    if len(body) < PREFIX.size:
        raise ProtocolError(f"frame body of {len(body)} bytes is too short")
    start = PREFIX.size + PREFIX.unpack_from(body)[1]
    if start > len(body):
        raise ProtocolError("JSON runs past the frame")
    view = memoryview(body)
    cursor = [start, 0]  # next buffer byte, next array index

    def array(obj: dict) -> Any:
        if ND_KEY not in obj:
            return obj
        spec = obj[ND_KEY]
        if len(obj) != 1 or not isinstance(spec, list) or len(spec) != 3:
            raise ProtocolError(f"malformed array marker {obj!r:.80}")
        index, dtype, shape = spec
        if type(index) is not int or index != cursor[1]:
            raise ProtocolError(f"array index {index!r:.20}, expected {cursor[1]}")
        if not isinstance(dtype, str) or dtype not in DTYPES:
            raise ProtocolError(f"array dtype {dtype!r:.20} is not allowed")
        if not isinstance(shape, list) or not all(
            type(extent) is int and extent >= 0 for extent in shape
        ):
            raise ProtocolError(f"malformed array shape {shape!r:.80}")
        offset = cursor[0]
        cursor[0] += np.dtype(dtype).itemsize * math.prod(shape)
        cursor[1] += 1
        if cursor[0] > len(body):
            raise ProtocolError(f"array {index} runs past the frame")
        return np.frombuffer(view[offset : cursor[0]], dtype).reshape(shape).copy()

    try:
        message = json.loads(str(view[PREFIX.size : start], "utf-8"), object_hook=array)
    except (ValueError, TypeError, RecursionError) as exc:
        raise ProtocolError(f"malformed frame: {type(exc).__name__}: {exc}") from None
    if cursor[0] != len(body):
        raise ProtocolError(f"{len(body) - cursor[0]} trailing bytes after the arrays")
    return message


def opcode(message: Any) -> Optional[str]:
    """The leading string of a decoded request or reply, or ``None``."""
    if isinstance(message, list) and message and isinstance(message[0], str):
        return message[0]
    return None


def write_frame(stream: BinaryIO, message: Any) -> None:
    """Encode, then write and flush one frame (nothing is written when
    the message cannot be encoded)."""
    stream.write(encode(message))
    stream.flush()


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(min(remaining, _READ_CHUNK))
        if not chunk:
            raise EOFError(f"stream closed {remaining} byte(s) short of a frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> Any:
    """Read and decode one frame.

    Raises :class:`EOFError` when the stream closes (at a frame boundary
    or inside one) and :class:`~repro.dist.errors.ProtocolError` on a
    frame that does not decode.
    """
    header = stream.read(HEADER.size)
    if not header:
        raise EOFError("stream closed")
    if len(header) < HEADER.size:
        header += _read_exact(stream, HEADER.size - len(header))
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    return decode(_read_exact(stream, length))
