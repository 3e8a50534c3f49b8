"""C-heavy / C-light classification of a cluster's outside neighbors (§2.4.1).

Every node ``u`` in a cluster C broadcasts its cluster ID to its neighbors
outside C (one round); each outside neighbor ``v`` counts its neighbors in
C — the value g_{v,C} — and reports back whether it is *C-heavy*
(g_{v,C} > threshold) or *C-light* (one more round).

The distinction drives how outside edges reach the cluster: heavy nodes
have enough parallel links into C to push their out-edges in; light nodes
are instead *queried* by the good cluster nodes (see ``gather``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.keys import node_mask


@dataclass(frozen=True)
class HeavyLightSplit:
    """Classification of one cluster's outside neighborhood.

    Attributes
    ----------
    heavy / light:
        The C-heavy and C-light outside neighbors.
    cluster_degree:
        g_{v,C} for every outside neighbor v.
    rounds:
        CONGEST rounds for the classification protocol (2: announce +
        count/report).
    """

    heavy: FrozenSet[int]
    light: FrozenSet[int]
    cluster_degree: Dict[int, int]
    rounds: int = 2


def classify_outside_neighbors(
    graph: Graph, cluster_nodes: Set[int], heavy_threshold: int
) -> HeavyLightSplit:
    """Split a cluster's outside neighbors into C-heavy and C-light.

    Parameters
    ----------
    graph:
        The *current* full graph (adjacency defines who is a neighbor of
        the cluster).
    cluster_nodes:
        Member set of the cluster C.
    heavy_threshold:
        g_{v,C} strictly above this makes v C-heavy (paper: n^{1/4} in the
        generic variant, n^{d−1/3} in the K4 variant).
    """
    if heavy_threshold < 1:
        raise ValueError(f"heavy threshold must be >= 1, got {heavy_threshold}")
    n = graph.num_nodes
    inside = node_mask(cluster_nodes, n)
    _members, neighbors = graph.to_csr().neighbor_pairs(np.flatnonzero(inside))
    counts = np.bincount(neighbors[~inside[neighbors]], minlength=n)
    outside = np.flatnonzero(counts)
    degrees = counts[outside]
    heavy = degrees > heavy_threshold
    return HeavyLightSplit(
        heavy=frozenset(outside[heavy].tolist()),
        light=frozenset(outside[~heavy].tolist()),
        cluster_degree=dict(zip(outside.tolist(), degrees.tolist())),
    )
