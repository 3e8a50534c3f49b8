"""Mixing-time estimation for cluster validation.

Definition 2.1 requires each cluster's mixing time to be polylog(n).  We
estimate the mixing time of the lazy random walk two ways:

- **spectral** (default): t_mix ≈ ln(4 / π_min) / (1 − λ₂(W)), the standard
  relaxation-time bound.  W = (I + D⁻¹A)/2 is similar to I − L/2 for the
  normalized Laplacian L, so 1 − λ₂(W) = λ₂(L)/2: the gap comes from the
  same symmetric solve the sweep cut runs;
- **simulation** (cross-check in tests): iterate the walk from the worst
  single-vertex start until total-variation distance from stationarity
  drops below 1/4.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.decomposition.spectral import (
    adjacency_matrix,
    lambda2_of_component,
    lazy_walk_matrix,
)
from repro.graphs.graph import Graph


def _gap(lambda2: float) -> float:
    """1 − λ₂(W) from the normalized Laplacian's λ₂."""
    return float(max(1e-12, lambda2 / 2.0))


def spectral_gap(graph: Graph, nodes: Sequence[int]) -> Optional[float]:
    """1 − λ₂ of the lazy walk on the induced subgraph (None if < 3 nodes)."""
    lambda2 = lambda2_of_component(graph, nodes)
    return None if lambda2 is None else _gap(lambda2)


def estimate_mixing_time(
    graph: Graph, nodes: Sequence[int], lambda2: Optional[float] = None
) -> Optional[float]:
    """Relaxation-time upper estimate of the lazy-walk mixing time.

    t_mix(1/4) ≤ (1/gap) · ln(4 / π_min) with π_min the smallest
    stationary mass; returns ``None`` for components with < 3 nodes.
    ``lambda2`` is the component's normalized-Laplacian λ₂ when the
    caller has already solved for it (the sweep cut has); otherwise it
    is solved here.
    """
    ordered = sorted(nodes)
    if len(ordered) < 3:
        return None
    if lambda2 is None:
        lambda2 = lambda2_of_component(graph, ordered)
    degrees = np.asarray(adjacency_matrix(graph, ordered).sum(axis=1)).flatten()
    pi_min = degrees.min() / degrees.sum()
    return float((1.0 / _gap(lambda2)) * math.log(4.0 / pi_min))


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
