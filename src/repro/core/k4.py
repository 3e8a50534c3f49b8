"""K4-variant machinery (§3, Theorem 1.2).

In the K4 variant, clusters never import light-incident outside edges —
instead every C-light node lists, itself, all K4 instances consisting of
two of its cluster neighbors and one further common neighbor.  Combined
with the heavy push (which covers heavy-sourced outside edges) this
removes the Õ(n^{3/4}) light-gather term and yields Õ(n^{2/3}) rounds.

The protocol (per cluster, clusters handled *sequentially* because a
light node's broadcasts occupy all of its incident edges): light node v
announces each of its g_{v,C} cluster neighbors to every neighbor; each
neighbor answers one adjacency bit per announced ID.  v then locally sees
every K4 = {u, w, v, v'} with u, w ∈ C and lists those it observes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.congest.ledger import RoundLedger
from repro.graphs.graph import Graph

Clique = FrozenSet[int]


@dataclass(frozen=True)
class LightListingOutcome:
    """Output of the light-node K4 listing for one cluster."""

    listed: Dict[int, Set[Clique]]
    rounds: float
    cliques_found: int


def light_node_k4_listing(
    graph: Graph,
    cluster_nodes: FrozenSet[int],
    light: FrozenSet[int],
) -> LightListingOutcome:
    """C-light nodes list every K4 they share two cluster nodes with.

    For light node v and cluster neighbors u, w (adjacent to each other),
    any common neighbor v' of {u, w, v} outside the cluster closes a K4.
    v learns the needed adjacencies from the announce/answer protocol:
    each of its neighbors answers one bit per announced cluster-neighbor
    ID, so v knows {u,w} (w answers about u), {u,v'} and {w,v'} (v'
    answers about both).

    Rounds = 2 · max over C-light v of g_{v,C} (announcements plus the
    answer bits, every edge of v working in parallel).
    """
    listed: Dict[int, Set[Clique]] = {}
    worst_g = 0
    found = 0
    for v in sorted(light):
        cluster_neighbors = sorted(u for u in graph.neighbors(v) if u in cluster_nodes)
        if len(cluster_neighbors) < 2:
            worst_g = max(worst_g, len(cluster_neighbors))
            continue
        worst_g = max(worst_g, len(cluster_neighbors))
        outside_neighbors = [
            x for x in graph.neighbors(v) if x not in cluster_nodes and x != v
        ]
        for i, u in enumerate(cluster_neighbors):
            u_adjacency = graph.neighbors(u)
            for w in cluster_neighbors[i + 1 :]:
                if w not in u_adjacency:
                    continue
                for v_prime in outside_neighbors:
                    if v_prime in u_adjacency and graph.has_edge(w, v_prime):
                        clique = frozenset((u, w, v, v_prime))
                        if len(clique) == 4:
                            listed.setdefault(v, set()).add(clique)
                            found += 1
    return LightListingOutcome(
        listed=listed, rounds=2.0 * worst_g, cliques_found=found
    )


def sequential_light_phase(
    graph: Graph,
    clusters: List[Tuple[FrozenSet[int], FrozenSet[int]]],
    ledger: RoundLedger,
    phase: str,
) -> Dict[int, Set[Clique]]:
    """Run the light-node listing cluster by cluster (sequentially).

    ``clusters`` is a list of (cluster_nodes, light) pairs.  The per-
    cluster costs *sum* — unlike the in-cluster phases, a light node's
    broadcast occupies every edge incident to it, which may serve other
    clusters too, so the paper schedules clusters one after another
    (O(n^{1−δ}) of them, each O(n^{d−1/3}) rounds).
    """
    listed: Dict[int, Set[Clique]] = {}
    total_rounds = 0.0
    total_found = 0
    for cluster_nodes, light in clusters:
        outcome = light_node_k4_listing(graph, cluster_nodes, light)
        total_rounds += outcome.rounds
        total_found += outcome.cliques_found
        for node, cliques in outcome.listed.items():
            listed.setdefault(node, set()).update(cliques)
    ledger.charge(
        phase, total_rounds, clusters=len(clusters), cliques_found=total_found
    )
    return listed
