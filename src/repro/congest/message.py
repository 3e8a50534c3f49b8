"""Message envelope with word-size accounting.

In the CONGEST model a message is O(log n) bits.  We measure message sizes
in *words*, where one word is one O(log n)-bit unit — enough for a node
identifier, an edge endpoint, or a small tagged value.  An edge, being two
identifiers, is two words; the faithful engine and the charged primitives
both count words, so "send an edge" costs exactly what the paper charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


def payload_words(payload: Any) -> int:
    """Default word-size estimate for a payload.

    Tuples/lists cost one word per atomic element (recursively); anything
    atomic (ints — numpy scalars included — and small strings used as
    tags) costs one word.  A numpy array counts one word per element,
    matching the tuple it stands in for on the batch plane.  Algorithms
    that know better can pass ``words=`` explicitly when sending.
    """
    if isinstance(payload, (tuple, list)):
        return sum(payload_words(item) for item in payload)
    if isinstance(payload, (set, frozenset)):
        return sum(payload_words(item) for item in payload)
    if isinstance(payload, np.ndarray):
        return int(payload.size)
    return 1


@dataclass(frozen=True)
class Message:
    """A single directed message.

    Attributes
    ----------
    src, dst:
        Endpoint node identifiers.
    payload:
        Arbitrary Python object carried by the message.
    words:
        Size in O(log n)-bit words; used for bandwidth enforcement.
    """

    src: int
    dst: int
    payload: Any
    words: int = 1

    def __post_init__(self) -> None:
        # Normalize numpy integer scalars at the envelope boundary: a
        # batch-plane uint32 endpoint must weigh and compare exactly like
        # the python int it denotes (frozen dataclass => object.__setattr__).
        object.__setattr__(self, "src", _as_int(self.src, "src"))
        object.__setattr__(self, "dst", _as_int(self.dst, "dst"))
        object.__setattr__(self, "words", _as_int(self.words, "words"))
        if self.words < 1:
            raise ValueError(f"message must occupy at least 1 word, got {self.words}")

    @classmethod
    def of(cls, src: int, dst: int, payload: Any) -> "Message":
        """Construct with an automatically estimated word size.

        Numpy integer payload elements are normalized to python ints so a
        ``(np.uint32, np.uint32)`` edge from the columnar plane is sized
        (2 words) and compared exactly like its tuple-plane twin.
        """
        return cls(src, dst, _normalize_payload(payload), payload_words(payload))


def _as_int(value: Any, field_name: str) -> int:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"{field_name} must be an integer, got {type(value).__name__}")


def _normalize_payload(payload: Any) -> Any:
    """Recursively convert numpy integer scalars to python ints."""
    if isinstance(payload, np.integer):
        return int(payload)
    if isinstance(payload, tuple):
        return tuple(_normalize_payload(item) for item in payload)
    if isinstance(payload, list):
        return [_normalize_payload(item) for item in payload]
    return payload
