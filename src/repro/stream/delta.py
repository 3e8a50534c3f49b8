"""Batched incremental K_p delta computation.

The streaming invariant is a set identity.  Let ``G_old`` be the state
before an update batch and ``G_new`` the state after applying its net
inserts ``I`` and deletes ``D``:

- every K_p of ``G_old`` *not* containing a ``D``-edge survives into
  ``G_new`` (all its edges are untouched), and
- every K_p of ``G_new`` *not* containing an ``I``-edge already existed
  in ``G_old``.

So the exact delta is ``removed = touched(G_old, D)`` and
``added = touched(G_new, I)``, where ``touched(G, E)`` is the set of
K_p of ``G`` with at least one edge in ``E`` — and the two sets are
disjoint (a removed clique contains a deleted edge, so it is not in
``G_new``; an added one contains an inserted edge, so it was not in
``G_old``).  Counts update by ``|added| - |removed|`` with no inclusion–
exclusion at all.

``touched`` itself is the classic common-neighborhood enumeration,
batched: a K_p containing edge ``(u, v)`` is ``{u, v}`` plus a
K\\ :sub:`p-2` of the subgraph induced on ``S = N(u) ∩ N(v)``.  The
bitset path computes every intersection row with one vectorized AND
over the overlay's full-adjacency bitsets, expands members and induced
edges word-first, and — for p ≥ 5 — lists every touched edge's
K\\ :sub:`p-2` in a single block-diagonal
:func:`~repro.graphs.csr.grouped_clique_tables` pipeline (one group per
touched edge), instead of one kernel launch per edge.  A final
:func:`~repro.graphs.table.canonical_rows` pass (sort within rows, one
packed key per row, sort and drop adjacent repeats) collapses cliques
reached through several touched edges.  Past
:data:`~repro.graphs.csr.BITSET_MAX_NODES` a sorted-row fallback does
the same per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.graphs.csr import (
    _expand_members,
    clique_table_from_edge_array,
    grouped_clique_tables,
    intersect_sorted,
)
from repro.graphs.table import canonical_rows


@dataclass(frozen=True)
class KpDelta:
    """The exact K_p change caused by one applied update batch.

    ``removed`` / ``added`` are unique, id-ascending ``(count, p)``
    clique tables; every removed row was present before the batch,
    every added row is present after it, and the two are disjoint.
    """

    p: int
    removed: np.ndarray
    added: np.ndarray

    @property
    def net(self) -> int:
        return int(self.added.shape[0] - self.removed.shape[0])


def touched_clique_table(state, edges: np.ndarray, p: int) -> np.ndarray:
    """All K_p of ``state`` containing at least one edge of ``edges``.

    Parameters
    ----------
    state:
        Adjacency provider — anything with ``adjacency_bits()`` and
        sorted ``neighbors(v)`` rows (a
        :class:`~repro.graphs.overlay.CSROverlay` or a
        :class:`~repro.graphs.csr.CSRGraph`).
    edges:
        ``(k, 2)`` canonical edge array; every row must be an edge of
        ``state``.
    p:
        Clique size, ≥ 3 (sizes 1/2 are served directly by the engine).

    Returns the canonical ``(count, p)`` rows as int64 — members
    ascending within each row, rows unique and lexicographic, the order
    of :meth:`CSRGraph.clique_result` — so they fold straight into the
    maintained listings.
    """
    if p < 3:
        raise ValueError(f"delta tables exist for p >= 3 only, got {p}")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    empty = np.empty((0, p), dtype=np.int64)
    if edges.shape[0] == 0:
        return empty
    bits = state.adjacency_bits()
    if bits is not None:
        table = _touched_bitset(bits, edges, p)
    else:  # n > BITSET_MAX_NODES: merge sorted overlay rows per edge
        table = _touched_sorted(state, edges, p)
    if table.shape[0] == 0:
        return empty
    return canonical_rows(table, p).astype(np.int64)


def _touched_bitset(bits: np.ndarray, edges: np.ndarray, p: int) -> np.ndarray:
    """One AND per touched edge, then the grouped level pipeline."""
    inter = bits[edges[:, 0]] & bits[edges[:, 1]]  # row e = N(u_e) ∩ N(v_e)
    rows, w = _expand_members(inter)
    if p == 3:
        out = np.empty((rows.size, 3), dtype=np.int64)
        out[:, :2] = edges[rows]
        out[:, 2] = w
        return out
    # Induced edges of each intersection: x ∈ S_e ∩ N(w) with x > w, so
    # each undirected pair inside S_e appears exactly once per group.
    cand = inter[rows] & bits[w]
    ri, x = _expand_members(cand)
    keep = x > w[ri]
    group = rows[ri[keep]]  # ascending: rows and ri both ascend
    gw = w[ri[keep]]
    gx = x[keep]
    if p == 4:
        out = np.empty((group.size, 4), dtype=np.int64)
        out[:, :2] = edges[group]
        out[:, 2] = gw
        out[:, 3] = gx
        return out
    k = edges.shape[0]
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=k), out=indptr[1:])
    owners, sub = grouped_clique_tables(indptr, np.stack([gw, gx], axis=1), p - 2)
    out = np.empty((owners.size, p), dtype=np.int64)
    out[:, :2] = edges[owners]
    out[:, 2:] = sub
    return out


def _touched_sorted(state, edges: np.ndarray, p: int) -> np.ndarray:
    """Per-edge sorted-row fallback for graphs past the bitset cap."""
    out: List[tuple] = []
    for u, v in edges.tolist():
        common = intersect_sorted(state.neighbors(u), state.neighbors(v))
        if common.size < p - 2:
            continue
        if p == 3:
            out.extend((u, v, w) for w in common.tolist())
            continue
        induced: List[tuple] = []
        for w in common.tolist():
            later = intersect_sorted(common, state.neighbors(w))
            induced.extend((w, x) for x in later[later > w].tolist())
        if p == 4:
            out.extend((u, v, w, x) for w, x in induced)
        elif induced:
            sub = clique_table_from_edge_array(
                np.asarray(induced, dtype=np.int64), p - 2
            )
            out.extend((u, v, *row) for row in sub.tolist())
    if not out:
        return np.empty((0, p), dtype=np.int64)
    return np.asarray(out, dtype=np.int64)
