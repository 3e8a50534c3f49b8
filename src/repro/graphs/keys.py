"""Sorted int64 edge keys: the array form of an edge set.

An undirected edge ``{u, v}`` of a graph on ``n`` nodes is the key
``u·n + v`` with ``u < v``; an oriented edge ``src → dst`` is
``src·n + dst``.  A sorted, repeat-free key array is a set: union and
membership are one sort or one ``searchsorted`` away, which is how the
CONGEST outer loop (ARB-LIST, LIST and the driver) keeps Êr, Ês and the
current graph without a Python object per edge.

:func:`unique_sorted` is the library's one sorted dedup.  It returns what
``np.unique`` returns on the flattened input, but sorts and drops
adjacent repeats instead of taking numpy's (≥ 2.3) hash-table path,
which is ~20× slower on the ten-thousand-key int64 arrays these paths
dedup.
"""

from __future__ import annotations

from itertools import chain
from operator import index
from typing import Iterable, Tuple, Union

import numpy as np

Edge = Tuple[int, int]

#: An edge collection: an ``(m, 2)`` integer array or an iterable of pairs.
EdgesLike = Union[np.ndarray, Iterable[Edge]]

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def unique_sorted(values) -> np.ndarray:
    """Sorted distinct values of ``values`` (flattened), dtype kept."""
    ordered = np.sort(np.asarray(values).ravel())
    if ordered.size < 2:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def edge_array(edges: EdgesLike) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` int64 array (pairs kept as given).

    A node id is anything :func:`operator.index` accepts: Python ints,
    bools and numpy integers of either signedness, mixed freely.  Raises
    ``ValueError``, naming the first offending item, for a float (or any
    other non-integer) id, an id outside int64, an item that is not a
    pair, or an array that is not ``(m, 2)``; an empty input is the
    empty edge set whatever its shape.
    """
    if isinstance(edges, np.ndarray):
        if edges.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"an edge array has shape (m, 2), got {edges.shape}")
        kind = edges.dtype.kind
        if kind in "bi" or (kind == "u" and edges.max() <= _INT64_MAX):
            return np.asarray(edges, dtype=np.int64)
        edges = edges.tolist()  # float, object or too-wide ids: checked as pairs
    items = edges if isinstance(edges, (list, tuple)) else list(edges)
    try:
        if set(map(len, items)) <= {2}:
            flat = np.fromiter(
                map(index, chain.from_iterable(items)), dtype=np.int64, count=2 * len(items)
            )
            return flat.reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):
        pass  # _checked_pair names the item at fault
    pairs = [_checked_pair(item) for item in items]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _checked_pair(item) -> Edge:
    """``item`` as two int64 node ids; raises ``ValueError`` naming it."""
    try:
        u, v = map(index, item)
    except (TypeError, ValueError):
        raise ValueError(f"edge {item!r} is not a pair of integer node ids") from None
    if not (_INT64_MIN <= min(u, v) and max(u, v) <= _INT64_MAX):
        raise ValueError(f"edge {item!r} has a node id outside int64")
    return u, v


def edge_keys(edges: EdgesLike, n: int) -> np.ndarray:
    """Sorted distinct canonical keys ``min·n + max`` of an edge collection."""
    pairs = edge_array(edges)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return unique_sorted(lo * n + hi)


def key_pairs(keys: np.ndarray, n: int) -> np.ndarray:
    """Keys back to an ``(m, 2)`` int64 ``(key // n, key % n)`` table."""
    pairs = np.empty((keys.size, 2), dtype=np.int64)
    if keys.size:
        np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def node_mask(nodes: Iterable[int], n: int) -> np.ndarray:
    """Boolean mask over ``range(n)`` that is true on ``nodes``."""
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(nodes, dtype=np.int64)] = True
    return mask


def contains_sorted(keys: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Mask of the ``needles`` present in the sorted key array ``keys``."""
    if not keys.size:
        return np.zeros(np.shape(needles), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, needles), keys.size - 1)
    return keys[pos] == needles
