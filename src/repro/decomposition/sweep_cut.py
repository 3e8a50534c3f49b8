"""Sweep cuts: turn a Fiedler vector into a low-conductance vertex cut.

Classic Cheeger rounding: sort vertices by the (degree-normalized) second
eigenvector, sweep all prefixes, and return the prefix with minimum
conductance.  Guaranteed to find a cut of conductance ≤ √(2 λ₂), so when
a component is *not* an expander the decomposition can split it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Set

import numpy as np

from repro.decomposition.spectral import (
    adjacency_matrix,
    normalized_laplacian_second_eigenpair,
)
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class SweepCutResult:
    """Outcome of a sweep over one component.

    Attributes
    ----------
    side:
        The smaller-volume side of the best cut (global node IDs).
    conductance:
        Conductance of the best cut (cut edges / min side volume).
    lambda2:
        λ₂ of the component's normalized Laplacian.
    """

    side: Set[int]
    conductance: float
    lambda2: float


def sweep_cut(graph: Graph, nodes: Sequence[int]) -> Optional[SweepCutResult]:
    """Best sweep cut of the induced subgraph on ``nodes``.

    Returns ``None`` for components too small to cut (< 4 nodes) — the
    decomposition handles those by other means (peeling or leftover).
    """
    ordered = sorted(nodes)
    if len(ordered) < 4:
        return None
    adj = adjacency_matrix(graph, ordered)
    degrees = np.asarray(adj.sum(axis=1)).flatten()
    if np.any(degrees == 0):
        raise ValueError("sweep cut requires a component with no isolated vertices")
    lambda2, fiedler = normalized_laplacian_second_eigenpair(adj)
    # Degree-normalize: the Cheeger sweep orders by D^{-1/2} v2.
    scores = fiedler / np.sqrt(degrees)
    order = np.argsort(scores)

    # Prefix t holds order[:t+1].  Adding v to the prefix un-cuts its
    # edges to earlier members and cuts the rest, so with exact integer
    # counts the cut after each step is one cumulative sum.
    counts = np.diff(adj.indptr).astype(np.int64)
    rank = np.empty(len(ordered), dtype=np.int64)
    rank[order] = np.arange(len(ordered), dtype=np.int64)
    row = np.repeat(np.arange(len(ordered), dtype=np.int64), counts)
    earlier = np.bincount(
        row[rank[adj.indices] < rank[row]], minlength=len(ordered)
    )
    cut_edges = np.cumsum(counts[order] - 2 * earlier[order])[:-1]
    prefix_volume = np.cumsum(counts[order])[:-1]
    total_volume = float(degrees.sum())
    denom = np.minimum(prefix_volume, int(counts.sum()) - prefix_volume)
    conductance = np.full(cut_edges.size, np.inf)
    valid = denom > 0
    conductance[valid] = cut_edges[valid] / denom[valid]
    # The first minimum, as a scan keeping only strict improvements.
    best = int(np.argmin(conductance))
    best_conductance = conductance[best]
    if not np.isfinite(best_conductance):
        return None
    side_local = order[: best + 1]
    side = {ordered[i] for i in side_local}
    # Report the smaller-volume side for downstream balance heuristics.
    side_volume = float(degrees[side_local].sum())
    if side_volume > total_volume / 2:
        side = set(ordered) - side
    return SweepCutResult(side=side, conductance=float(best_conductance), lambda2=lambda2)
