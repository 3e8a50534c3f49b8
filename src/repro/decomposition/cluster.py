"""Cluster object — Definition 2.1 of the paper.

A cluster is a maximal connected component of the ``Em`` part of the
decomposition: every member has Ω(n^δ) neighbors *inside* the cluster and
the induced subgraph mixes in polylog(n) rounds.  The listing algorithm
treats the cluster as a little congested-clique-like computer whose
bandwidth is (min internal degree) words per node per Õ(1) rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

import numpy as np

from repro.graphs.keys import edge_array


@dataclass
class Cluster:
    """One n^δ-cluster of an expander decomposition.

    Attributes
    ----------
    cluster_id:
        Unique identifier within the decomposition (known to all cluster
        members in the distributed construction, per Theorem 2.3).
    nodes:
        Member node identifiers (global IDs).
    edges:
        The cluster's ``Em`` edges as an ``(m, 2)`` int64 array of
        canonical ``u < v`` rows, both endpoints in ``nodes`` (the
        constructor takes any edge collection).
    min_internal_degree:
        Minimum over members of the number of cluster-internal neighbors;
        this is the routing capacity n^δ used by Theorem 2.4 charges.
    mixing_time:
        Estimated mixing time of the lazy random walk on the induced
        subgraph (rounds); ``None`` when the cluster is too small for a
        meaningful estimate (e.g. a single edge).
    conductance:
        Conductance estimate of the induced subgraph (sweep-cut value).
    """

    cluster_id: int
    nodes: FrozenSet[int]
    edges: np.ndarray
    min_internal_degree: int
    mixing_time: Optional[float] = None
    conductance: Optional[float] = None

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError(
                f"cluster {self.cluster_id} must have >= 2 nodes, got {len(self.nodes)}"
            )
        self.edges = edge_array(self.edges)
        leaves = ~np.isin(self.edges, np.fromiter(self.nodes, dtype=np.int64)).all(axis=1)
        if leaves.any():
            u, v = self.edges[np.argmax(leaves)].tolist()
            raise ValueError(
                f"cluster {self.cluster_id}: edge ({u}, {v}) leaves the node set"
            )

    @property
    def size(self) -> int:
        """Number of member nodes (``k`` in §2.4.3)."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def new_ids(self) -> Dict[int, int]:
        """Lemma 2.5 — fresh IDs 1..k for cluster members.

        Deterministic (sorted by global ID) so every member can compute
        the assignment locally after the polylog-round ID protocol the
        paper charges for.
        """
        return {v: i + 1 for i, v in enumerate(sorted(self.nodes))}

    def __repr__(self) -> str:
        return (
            f"Cluster(id={self.cluster_id}, k={self.size}, m={self.num_edges}, "
            f"min_deg={self.min_internal_degree})"
        )
