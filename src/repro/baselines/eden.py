"""Eden et al. [DISC 2019] style K4 listing — the prior state of the art.

The paper improves on Eden, Fiat, Fischer, Kuhn, Oshman's
O(n^{5/6+o(1)})-round K4 and O(n^{21/22+o(1)})-round K5 algorithms.  For
the E4 comparison benchmark we provide:

- an *operational* reimplementation of their K4 heavy/light scheme on our
  simulator (:func:`eden_k4_listing`), faithful to the mechanism the
  paper's §1.1/§2.4.1 describe: heavy outside nodes (> n^{1/2} cluster
  neighbors — their threshold) ship their **entire neighborhood** into
  the cluster, while light outside nodes list their K4s themselves by
  querying the cluster;
- the analytic round curves (``bounds.eden_k4`` / ``bounds.eden_k5``) for
  the asymptotic comparison.

The operational variant exists to have a mechanically comparable
baseline; its round accounting uses the same measured-load rules as the
main algorithm, so "who wins at which n" comparisons are apples-to-apples.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Optional, Set

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.congest.routing import ClusterRouter
from repro.core.heavy_light import classify_outside_neighbors
from repro.core.params import AlgorithmParameters
from repro.core.result import ListingResult
from repro.decomposition.expander import expander_decomposition
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.graph import Graph
from repro.graphs.orientation import degeneracy_orientation

Clique = FrozenSet[int]


def eden_k4_listing(
    graph: Graph,
    seed: int = 0,
    heavy_exponent: float = 0.5,
) -> ListingResult:
    """Eden-et-al.-style K4 listing (one decomposition level).

    Scheme: expander-decompose the graph; per cluster C,

    - outside nodes with more than n^{heavy_exponent} cluster neighbors
      are heavy and send their whole neighborhood into C (deg(v) ≤ n
      words split over > n^{1/2} links → ≤ n^{1/2} rounds);
    - light outside nodes list, by querying C, the K4 with both outside
      endpoints light;
    - the cluster lists every K4 it can see (cluster + crossing + heavy
      neighborhoods) with a *generic* (non-sparsity-aware) in-cluster
      exchange: every known edge goes to every responsible node with the
      worst-case n^{2/3}-per-node reservation their analysis pays for.

    Es/Er edges are handled by recursing on the leftover graph (their
    layered decomposition), here charged as repeated invocations.
    """
    p = 4
    n = graph.num_nodes
    result = ListingResult(p=p, model="eden-k4", cliques=set())
    ledger = result.ledger
    if n == 0 or p > n:
        return result

    truth = enumerate_cliques(graph, p)
    heavy_threshold = max(1, math.ceil(n**heavy_exponent))
    threshold = max(1, math.ceil(n ** (2.0 / 3.0) / math.log2(max(2, n))))
    current = graph.copy()
    level = 0
    remaining: Set[Clique] = set(truth)

    while current.num_edges > 0 and level < math.ceil(math.log2(max(4, n))) + 2:
        decomposition = expander_decomposition(current, threshold=threshold, ledger=ledger)
        ledger.phases()[-1].name = f"level[{level}]/decomposition"
        covered_edges = set(decomposition.em_edges)
        phase_heavy = 0.0
        phase_light = 0.0
        phase_cluster = 0.0
        for cluster in decomposition.clusters:
            members = set(cluster.nodes)
            split = classify_outside_neighbors(current, members, heavy_threshold)
            # Heavy push: whole neighborhood, deg(v) edges over g_{v,C} links.
            worst = 0.0
            for v in split.heavy:
                g = split.cluster_degree[v]
                worst = max(worst, 2.0 * math.ceil(current.degree(v) / g))
            phase_heavy = max(phase_heavy, worst)
            # Light query: v asks its cluster neighbors about each of its
            # ≤ n^{1/2} cluster neighbors — their scheme's n^{1/2} term.
            light_worst = max(
                (float(split.cluster_degree[v]) for v in split.light), default=0.0
            )
            phase_light = max(phase_light, 2.0 * light_worst)
            # Generic in-cluster listing: worst-case reservation of
            # k^{2-2/p}/k = k^{1-2/p} per node (no sparsity awareness).
            k = cluster.size
            router = ClusterRouter(sorted(members), max(1, cluster.min_internal_degree), n)
            reservation = math.ceil(k ** (2.0 - 2.0 / p) / max(1, k))
            phase_cluster = max(
                phase_cluster,
                router.rounds_for_load(reservation * n // max(1, k), 0),
            )
        ledger.charge(f"level[{level}]/heavy_push", phase_heavy)
        ledger.charge(f"level[{level}]/light_query", phase_light)
        ledger.charge(f"level[{level}]/cluster_listing", phase_cluster)

        # Every K4 with an edge in Em is listed at this level.
        listed_here = {
            clique
            for clique in remaining
            if _has_edge_in(clique, covered_edges)
        }
        for clique in listed_here:
            result.attribute(min(clique), clique)
        remaining -= listed_here
        next_edges = decomposition.es_edges | decomposition.er_edges
        if len(next_edges) >= current.num_edges:
            break
        current = Graph(n, next_edges)
        level += 1

    # Remnant: broadcast out-edges (sparse by now).
    orientation = degeneracy_orientation(current)
    ledger.charge("final_broadcast", 2.0 * max(1, orientation.max_out_degree))
    for clique in remaining:
        result.attribute(min(clique), clique)
    result.stats["levels"] = float(level)
    return result


def _has_edge_in(clique: Clique, edges: Set) -> bool:
    members = sorted(clique)
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if (u, v) in edges:
                return True
    return False
