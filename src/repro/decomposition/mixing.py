"""Mixing-time estimation for cluster validation.

Definition 2.1 requires each cluster's mixing time to be polylog(n).  We
estimate the mixing time of the lazy random walk two ways:

- **spectral** (default): t_mix ≈ ln(k / π_min) / (1 − λ₂(W)), the standard
  relaxation-time bound, computed from the lazy-walk spectrum;
- **simulation** (cross-check in tests): iterate the walk from the worst
  single-vertex start until total-variation distance from stationarity
  drops below 1/4.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np
import scipy.sparse.linalg as spla

from repro.decomposition.spectral import (
    adjacency_matrix,
    arpack_start,
    lazy_walk_matrix,
)
from repro.graphs.graph import Graph

_DENSE_CUTOFF = 64


def spectral_gap(graph: Graph, nodes: Sequence[int]) -> Optional[float]:
    """1 − λ₂ of the lazy walk on the induced subgraph (None if < 3 nodes)."""
    ordered = sorted(nodes)
    if len(ordered) < 3:
        return None
    adj = adjacency_matrix(graph, ordered)
    walk = lazy_walk_matrix(adj)
    k = walk.shape[0]
    if k <= _DENSE_CUTOFF:
        eigenvalues = np.linalg.eigvals(walk.toarray())
        magnitudes = np.sort(np.abs(eigenvalues))[::-1]
        lambda2 = magnitudes[1] if len(magnitudes) > 1 else 0.0
    else:
        try:
            eigenvalues = spla.eigs(
                walk, k=2, which="LM", return_eigenvectors=False, v0=arpack_start(k)
            )
            magnitudes = np.sort(np.abs(eigenvalues))[::-1]
            lambda2 = magnitudes[1] if len(magnitudes) > 1 else 0.0
        except spla.ArpackError:  # no convergence included; other errors surface
            eigenvalues = np.linalg.eigvals(walk.toarray())
            magnitudes = np.sort(np.abs(eigenvalues))[::-1]
            lambda2 = magnitudes[1] if len(magnitudes) > 1 else 0.0
    return float(max(1e-12, 1.0 - lambda2))


def estimate_mixing_time(graph: Graph, nodes: Sequence[int]) -> Optional[float]:
    """Relaxation-time upper estimate of the lazy-walk mixing time.

    t_mix(1/4) ≤ (1/gap) · ln(4 / π_min) with π_min the smallest
    stationary mass; returns ``None`` for components with < 3 nodes.
    """
    ordered = sorted(nodes)
    gap = spectral_gap(graph, ordered)
    if gap is None:
        return None
    adj = adjacency_matrix(graph, ordered)
    degrees = np.asarray(adj.sum(axis=1)).flatten()
    total = degrees.sum()
    pi_min = degrees.min() / total
    return float((1.0 / gap) * math.log(4.0 / pi_min))


def simulate_mixing_time(
    graph: Graph, nodes: Sequence[int], epsilon: float = 0.25, max_steps: int = 100_000
) -> Optional[int]:
    """Measured mixing time by explicit walk iteration (test cross-check).

    Starts from the vertex whose TV distance converges slowest in
    expectation (approximated by the minimum-degree vertex) and iterates
    the lazy walk until TV distance ≤ epsilon.
    """
    ordered = sorted(nodes)
    if len(ordered) < 3:
        return None
    adj = adjacency_matrix(graph, ordered)
    walk = lazy_walk_matrix(adj).toarray()
    degrees = np.asarray(adj.sum(axis=1)).flatten()
    stationary = degrees / degrees.sum()
    start = int(np.argmin(degrees))
    dist = np.zeros(len(ordered))
    dist[start] = 1.0
    for step in range(1, max_steps + 1):
        dist = dist @ walk
        tv = 0.5 * np.abs(dist - stationary).sum()
        if tv <= epsilon:
            return step
    return max_steps


def polylog_mixing_budget(n: int, exponent: float = 3.0, scale: float = 4.0) -> float:
    """The "polylog(n)" budget clusters are validated against.

    Definition 2.1 asks for O(polylog(n)) mixing; validation uses
    ``scale · log2(n)^exponent`` with generous defaults, since the paper's
    constants are unspecified.
    """
    return scale * math.log2(max(2, n)) ** exponent
