"""δ-expander decomposition (Definition 2.2 / Theorem 2.3).

Construction (sequential, same output object as [Chang et al. SODA'19]):

1. **Peel** vertices of degree < ``threshold`` (= n^δ); peeled edges go to
   ``Es`` with the witness orientation.
2. For each surviving connected component, compute a **sweep cut**.
   - If its conductance ≥ φ, the component is an expander: it becomes a
     *cluster* (its edges are ``Em``) — its mixing time is certified
     polylog via the Cheeger bound t_mix = Õ(1/φ²).
   - Otherwise **split** along the cut.  Cut edges go to ``Er``.  Both
     sides are re-peeled and recursed on.
3. Components too small to ever satisfy the cluster degree bound dump
   their edges to ``Er``.

|Er| control: every cut charges its (low-conductance) cut edges against
the smaller side's volume, giving the standard φ·m·log m total; with the
default φ = 1/(c·log² n) this is ≤ |E|/6.  Because finite-n constants can
bite, :func:`expander_decomposition` *verifies* the bound and retries
with a halved φ when it fails (bounded retries), so the returned object
always satisfies Definition 2.2 — which is all the listing algorithm
assumes.

The CONGEST round cost of the distributed construction is charged per
Theorem 2.3: Õ(n^{1−δ}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.decomposition.arboricity import peel_low_degree
from repro.decomposition.cluster import Cluster
from repro.decomposition.mixing import estimate_mixing_time, polylog_mixing_budget
from repro.decomposition.sweep_cut import sweep_cut
from repro.graphs.csr import CSRGraph
from repro.graphs.graph import Graph
from repro.graphs.keys import edge_array, edge_keys, key_pairs, unique_sorted
from repro.graphs.orientation import Orientation


#: Safety bound on the cut recursion depth.
MAX_RECURSION = 64

#: The Definition 2.2 requirement |Er| ≤ ER_FRACTION·|E|.
ER_FRACTION = 1.0 / 6.0

#: How many times φ is halved when the |Er| bound fails.
MAX_RETRIES = 4


def resolved_phi(n: int, phi: Optional[float] = None) -> float:
    """The conductance target: ``phi`` when given, else 1/(2·log₂²(n))."""
    if phi is not None:
        return phi
    log_n = math.log2(max(4, n))
    return 1.0 / (2.0 * log_n * log_n)


@dataclass
class Decomposition:
    """The output object of Definition 2.2.

    Every edge set is an ``(m, 2)`` int64 array of canonical ``u < v``
    rows (the constructor takes any edge collection): ``em_edges`` is
    the clusters' edges stacked, ``es_edges`` the edges of the arboricity
    witness ``es_orientation`` (Es is stored only as its witness), and
    ``er_edges`` is the leftover.
    """

    n: int
    threshold: int
    phi: float
    clusters: List[Cluster]
    es_orientation: Orientation
    er_edges: np.ndarray

    def __post_init__(self) -> None:
        self.er_edges = edge_array(self.er_edges)

    @property
    def es_edges(self) -> np.ndarray:
        return key_pairs(self.es_orientation.canonical_keys(), self.n)

    @property
    def em_edges(self) -> np.ndarray:
        return np.concatenate(
            [np.empty((0, 2), dtype=np.int64), *(c.edges for c in self.clusters)]
        )

    @property
    def delta_exponent(self) -> float:
        """The effective δ with threshold = n^δ."""
        if self.n < 2 or self.threshold <= 1:
            return 0.0
        return math.log(self.threshold) / math.log(self.n)

    def stats(self) -> Dict[str, float]:
        """Summary quantities used by benchmarks and by the tables
        ``python -m repro.analysis.report`` prints."""
        total = len(self.em_edges) + len(self.es_edges) + len(self.er_edges)
        return {
            "num_clusters": len(self.clusters),
            "em_edges": len(self.em_edges),
            "es_edges": len(self.es_edges),
            "er_edges": len(self.er_edges),
            "er_fraction": (len(self.er_edges) / total) if total else 0.0,
            "es_out_degree": self.es_orientation.max_out_degree,
            "min_cluster_degree": min(
                (c.min_internal_degree for c in self.clusters), default=0
            ),
        }


def expander_decomposition(
    graph: Graph,
    threshold: int,
    phi: Optional[float] = None,
    ledger: Optional[RoundLedger] = None,
) -> Decomposition:
    """Construct a δ-expander decomposition of ``graph``.

    Parameters
    ----------
    graph:
        Input graph; only its edges are read.
    threshold:
        The n^δ value: peeling threshold, cluster min-degree target and
        Es arboricity bound.
    phi:
        Conductance target; components at or above it become clusters
        (``None`` → :func:`resolved_phi`'s default).
    ledger:
        Charged Õ(n^{1−δ}) rounds (Theorem 2.3) when provided.

    Returns
    -------
    A :class:`Decomposition` satisfying Definition 2.2 (checked for the
    |Er| bound with φ-halving retries; the remaining properties hold by
    construction and are assertable via :func:`validate_decomposition`).
    """
    n = graph.num_nodes
    current_phi = resolved_phi(n, phi)

    best: Optional[Decomposition] = None
    for _attempt in range(MAX_RETRIES + 1):
        decomposition = _decompose_once(graph, threshold, current_phi)
        if best is None or len(decomposition.er_edges) < len(best.er_edges):
            best = decomposition
        if len(decomposition.er_edges) <= ER_FRACTION * max(1, graph.num_edges):
            break
        current_phi /= 2.0
    assert best is not None

    if ledger is not None:
        # Theorem 2.3: Õ(n^{1−δ}) rounds for the distributed construction.
        delta = best.delta_exponent
        rounds = (n ** (1.0 - delta)) * math.log2(max(2, n))
        ledger.charge(
            "expander_decomposition",
            rounds,
            threshold=best.threshold,
            delta=round(delta, 4),
            clusters=len(best.clusters),
            er_edges=len(best.er_edges),
        )
    return best


def _decompose_once(graph: Graph, threshold: int, phi: float) -> Decomposition:
    n = graph.num_nodes
    es_parts: List[np.ndarray] = []  # oriented keys of each peel
    er_parts: List[np.ndarray] = []  # (m, 2) edge tables
    clusters: List[Cluster] = []

    def absorb_peeling(work: Graph) -> Graph:
        remainder, orientation = peel_low_degree(work, threshold)
        es_parts.append(orientation.keys)
        return remainder

    def process(work: Graph, depth: int) -> None:
        if work.num_edges == 0:
            return
        csr = work.to_csr()
        table = csr.edge_table()
        if depth > MAX_RECURSION:
            er_parts.append(table)
            return
        for nodes, comp_edges in _components(csr, table):
            active = nodes.tolist()
            cut = sweep_cut(work, active)
            if cut is None or cut.conductance >= phi:
                cluster = _make_cluster(
                    work, active, comp_edges, len(clusters), cut
                )
                if cluster is not None:
                    clusters.append(cluster)
                else:
                    er_parts.append(comp_edges)
                continue
            # Low-conductance component: split along the sweep cut.
            in_side = np.zeros(n, dtype=bool)
            in_side[list(cut.side)] = True
            crossing = in_side[comp_edges[:, 0]] != in_side[comp_edges[:, 1]]
            er_parts.append(comp_edges[crossing])
            sub = Graph.from_edge_array(n, comp_edges[~crossing])
            process(absorb_peeling(sub), depth + 1)

    process(absorb_peeling(graph), 0)
    # Each peel takes its edges out of the graph the next one works on,
    # so the peels' keys are disjoint.
    return Decomposition(
        n=n,
        threshold=threshold,
        phi=phi,
        clusters=clusters,
        es_orientation=Orientation(n, np.sort(np.concatenate(es_parts))),
        er_edges=np.concatenate([np.empty((0, 2), dtype=np.int64), *er_parts]),
    )


def _components(csr: CSRGraph, table: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(nodes, edges)`` of each connected component with an edge, in
    order of its smallest node; ``table`` is ``csr.edge_table()``."""
    # Imported here, like every SciPy import (see decomposition.spectral):
    # only decompositions need it, and loading it with the package costs
    # every run that never decomposes ~25 MB of resident memory.
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    n = csr.num_nodes
    matrix = sp.csr_matrix(
        (np.ones(csr.indices.size, dtype=np.int8), csr.indices, csr.indptr),
        shape=(n, n),
    )
    _count, labels = connected_components(matrix, directed=False)
    nodes = np.flatnonzero(csr.degrees() > 0)
    groups = zip(_split_by(nodes, labels[nodes]), _split_by(table, labels[table[:, 0]]))
    return sorted(groups, key=lambda group: int(group[0][0]))


def _split_by(values: np.ndarray, labels: np.ndarray) -> List[np.ndarray]:
    """``values`` grouped by label, labels ascending; each group keeps
    its rows' order."""
    order = np.argsort(labels, kind="stable")
    labels = labels[order]
    starts = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    return np.split(values[order], starts) if labels.size else []


def _make_cluster(
    work: Graph,
    nodes: List[int],
    edges: np.ndarray,
    cluster_id: int,
    cut,
) -> Optional[Cluster]:
    """Build a Cluster for an expander component; None if degenerate."""
    if len(nodes) < 2:
        return None
    min_degree = int(work.to_csr().degrees()[nodes].min())
    if min_degree < 1:
        return None
    # The sweep already solved this component's λ₂; reuse it.
    mixing = estimate_mixing_time(
        work, nodes, lambda2=None if cut is None else cut.lambda2
    )
    return Cluster(
        cluster_id=cluster_id,
        nodes=frozenset(nodes),
        edges=edges,
        min_internal_degree=min_degree,
        mixing_time=mixing,
        conductance=None if cut is None else cut.conductance,
    )


def validate_decomposition(
    graph: Graph, decomposition: Decomposition, strict_mixing: bool = False
) -> None:
    """Check Definition 2.2 on a decomposition; raise ``ValueError`` if broken.

    Checks performed:

    1. {Em, Es, Er} partitions E(G).
    2. Clusters are vertex-disjoint; each member's internal degree ≥
       threshold (the Ω(n^δ) bound, with the paper's constant taken as 1).
    3. The Es witness has out-degree < threshold (each node is peeled at
       most once per decomposition, and a peeled node keeps no edge).
    4. |Er| ≤ |E|/6 (:data:`ER_FRACTION`).
    5. (optional) cluster mixing times within the polylog budget.
    """
    n = graph.num_nodes
    em = decomposition.em_edges
    es = decomposition.es_edges
    er = decomposition.er_edges
    rows = np.concatenate([em, es, er])
    keys = rows.min(axis=1) * n + rows.max(axis=1)
    union = unique_sorted(keys)
    if not np.array_equal(union, edge_keys(graph.to_csr().edge_table(), n)):
        raise ValueError("decomposition parts do not cover the edge set")
    if union.size != keys.size:
        raise ValueError("decomposition parts are not disjoint")

    clusters = decomposition.clusters
    members = [np.fromiter(c.nodes, dtype=np.int64) for c in clusters]
    nodes = np.concatenate([np.empty(0, dtype=np.int64), *members])
    owner = np.repeat([c.cluster_id for c in clusters], [m.size for m in members])
    order = np.argsort(nodes, kind="stable")
    shared = np.flatnonzero(np.diff(nodes[order]) == 0)
    if shared.size:
        first, second = order[shared[0]], order[shared[0] + 1]
        raise ValueError(
            f"node {nodes[first]} belongs to clusters {owner[first]} and {owner[second]}"
        )
    # Clusters are vertex-disjoint and keep their edges inside their
    # nodes, so one count over Em is every member's internal degree.
    internal = np.bincount(em.ravel(), minlength=n)
    for cluster, ids in zip(clusters, members):
        worst = int(internal[ids].min())
        if worst < decomposition.threshold:
            raise ValueError(
                f"cluster {cluster.cluster_id} has internal degree {worst} "
                f"< threshold {decomposition.threshold}"
            )

    out_degree = decomposition.es_orientation.max_out_degree
    if decomposition.threshold > 0 and out_degree >= decomposition.threshold:
        raise ValueError(
            f"Es witness out-degree {out_degree} >= threshold {decomposition.threshold}"
        )

    if len(er) > ER_FRACTION * max(1, graph.num_edges):
        raise ValueError(
            f"|Er| = {len(er)} exceeds |E|/6 = {graph.num_edges / 6:.1f}"
        )

    if strict_mixing:
        budget = polylog_mixing_budget(graph.num_nodes)
        for cluster in decomposition.clusters:
            if cluster.mixing_time is not None and cluster.mixing_time > budget:
                raise ValueError(
                    f"cluster {cluster.cluster_id} mixing time "
                    f"{cluster.mixing_time:.1f} exceeds budget {budget:.1f}"
                )
