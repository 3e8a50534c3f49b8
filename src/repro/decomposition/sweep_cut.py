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

    total_volume = float(degrees.sum())
    adj_lil = adj.tolil()
    in_prefix = np.zeros(len(ordered), dtype=bool)
    cut_edges = 0.0
    prefix_volume = 0.0
    best_conductance = np.inf
    best_prefix_len = 0

    for step, local_v in enumerate(order[:-1]):
        # Moving local_v into the prefix: edges to prefix members stop
        # being cut edges, edges to the outside become cut edges.
        to_prefix = sum(
            1 for u in adj_lil.rows[local_v] if in_prefix[u]
        )
        deg_v = degrees[local_v]
        cut_edges += deg_v - 2 * to_prefix
        prefix_volume += deg_v
        in_prefix[local_v] = True
        denom = min(prefix_volume, total_volume - prefix_volume)
        if denom <= 0:
            continue
        conductance = cut_edges / denom
        if conductance < best_conductance:
            best_conductance = conductance
            best_prefix_len = step + 1

    if best_prefix_len == 0 or not np.isfinite(best_conductance):
        return None
    side_local = order[:best_prefix_len]
    side = {ordered[i] for i in side_local}
    # Report the smaller-volume side for downstream balance heuristics.
    side_volume = float(degrees[side_local].sum())
    if side_volume > total_volume / 2:
        side = set(ordered) - side
    return SweepCutResult(side=side, conductance=float(best_conductance), lambda2=lambda2)
