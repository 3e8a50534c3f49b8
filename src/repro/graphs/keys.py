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
from typing import Iterable, Tuple, Union

import numpy as np

Edge = Tuple[int, int]

#: An edge collection: an ``(m, 2)`` integer array or an iterable of pairs.
EdgesLike = Union[np.ndarray, Iterable[Edge]]


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
    """``edges`` as an ``(m, 2)`` int64 array (pairs kept as given)."""
    if isinstance(edges, np.ndarray):
        return np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
    return flat.reshape(-1, 2)


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
