"""Bad nodes and bad edges (§2.4.1) — deferring overloaded cluster edges.

A cluster node ``u`` with too many C-light neighbors (more than
100·√n·log n) cannot afford the light-edge learning phase; such nodes are
*bad*.  Every cluster edge joining two bad nodes is a *bad edge*: it stops
being a goal edge of this iteration and is demoted to Êr, to be handled by
a future ARB-LIST invocation.  Crucially the demoted edges remain part of
the cluster for *communication* (the expander guarantees rely on them) —
only the listing obligation moves.

The paper proves at most |E'm|/25 edges are demoted; the benchmark E6
measures this fraction, and :func:`bad_edge_fraction_bound` provides the
paper's inequality for the assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.keys import EdgesLike, edge_array, node_mask


@dataclass(frozen=True)
class BadEdgeSplit:
    """Outcome of the bad-node analysis for one cluster.

    Attributes
    ----------
    bad_nodes:
        Cluster members with more than ``bad_threshold`` C-light neighbors.
    bad_edges:
        Cluster edges joining two bad nodes (demoted to Êr).
    goal_edges:
        Cluster edges the iteration *will* list all Kp for.
    light_degree:
        u_light per cluster member (how many C-light neighbors it has).

    Both edge sets are ``(m, 2)`` int64 arrays of cluster edge rows.
    """

    bad_nodes: FrozenSet[int]
    bad_edges: np.ndarray
    goal_edges: np.ndarray
    light_degree: Dict[int, int]


def split_bad_edges(
    graph: Graph,
    cluster_nodes: Set[int],
    cluster_edges: EdgesLike,
    light: FrozenSet[int],
    bad_threshold: int,
) -> BadEdgeSplit:
    """Identify bad nodes/edges of a cluster (§2.4.1).

    Parameters
    ----------
    graph:
        Current full graph (for the light-neighbor counts).
    cluster_nodes / cluster_edges:
        The cluster's members and its Em edges (any edge collection).
    light:
        The C-light outside neighbors (from ``heavy_light``).
    bad_threshold:
        u_light strictly above this marks u bad.
    """
    if bad_threshold < 1:
        raise ValueError(f"bad threshold must be >= 1, got {bad_threshold}")
    n = graph.num_nodes
    members = np.flatnonzero(node_mask(cluster_nodes, n))
    sources, neighbors = graph.to_csr().neighbor_pairs(members)
    counts = np.bincount(sources[node_mask(light, n)[neighbors]], minlength=n)
    bad = counts > bad_threshold
    edges = edge_array(cluster_edges)
    demoted = bad[edges[:, 0]] & bad[edges[:, 1]]
    return BadEdgeSplit(
        bad_nodes=frozenset(np.flatnonzero(bad).tolist()),
        bad_edges=edges[demoted],
        goal_edges=edges[~demoted],
        light_degree=dict(zip(members.tolist(), counts[members].tolist())),
    )


def bad_edge_fraction_bound() -> float:
    """The paper's bound on the demoted fraction of cluster edges (1/25)."""
    return 1.0 / 25.0
