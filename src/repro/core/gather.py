"""Bringing outside edges into the cluster (§2.4.1–§2.4.2).

Two mechanisms make every edge that can participate in a Kp with a goal
edge of C known to some node of C:

1. **Heavy push** — each C-heavy node v splits its ≤ A out-edges (under
   the global arboricity orientation) into chunks across its > threshold
   cluster neighbors.  This covers every outside edge whose *orientation
   source* is C-heavy; in particular all heavy–heavy outside edges
   (§2.4.2, Case 1).
2. **Light pull** — each good (non-bad) cluster node u announces its
   C-light neighbor list to *every* outside neighbor v', and v' responds
   with a bitmask marking which of those light nodes it is adjacent to.
   This teaches u every outside edge {w, v'} with w a light neighbor of u
   (§2.4.2, Case 2: in a Kp containing goal edge {u, w'}, all outside
   members are adjacent to u, so the light endpoint is in u's list and
   the other endpoint is queried).

Round costs are measured per directed cross edge and maximized — the
protocols run on each cross edge independently, so the per-phase cost is
the worst edge's load (standard pipelining).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple, Union

import numpy as np

from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.graphs.orientation import Orientation

#: A member's gathered pairs: a tuple set on the object plane, a
#: ``(k, 2)`` array of (src, dst) rows on the batch plane.
GatheredPairs = Union[Set[Tuple[int, int]], np.ndarray]


@dataclass
class GatherResult:
    """Edges brought into a cluster, keyed by the receiving member.

    Attributes
    ----------
    received:
        member node -> *oriented* (src, dst) pairs it learned — a set of
        tuples on the object plane, a ``(k, 2)`` int array on the batch
        plane.  Orientation matters downstream: the reshuffle routes each
        edge to the owner of its source node.
    heavy_push_rounds / light_pull_rounds:
        Measured round costs of the two mechanisms.
    stats:
        Measured load quantities for the benchmark reports.
    """

    received: Dict[int, GatheredPairs]
    heavy_push_rounds: float
    light_pull_rounds: float
    stats: Dict[str, float] = field(default_factory=dict)


def gather_heavy_out_edges(
    orientation: Orientation,
    cluster_nodes: Set[int],
    heavy: FrozenSet[int],
    cluster_degree: Dict[int, int],
    graph: Graph,
) -> Tuple[Dict[int, Set[Tuple[int, int]]], float, Dict[str, float]]:
    """Heavy push: every C-heavy node sends its out-edges into C.

    Returns (received-map, rounds, stats).  Rounds = max over heavy nodes
    of 2·⌈out-degree / g_{v,C}⌉ words per cross edge (an edge is two
    words), all heavy nodes operating in parallel on disjoint cross edges.
    """
    received: Dict[int, Set[Tuple[int, int]]] = {u: set() for u in cluster_nodes}
    worst_chunk_words = 0
    total_edges = 0
    for v in heavy:
        out = sorted(orientation.out_neighbors(v))
        if not out:
            continue
        links = sorted(u for u in graph.neighbors(v) if u in cluster_nodes)
        if not links:
            continue
        chunk = math.ceil(len(out) / len(links))
        worst_chunk_words = max(worst_chunk_words, 2 * chunk)
        for index, w in enumerate(out):
            receiver = links[index // chunk]
            received[receiver].add((v, w))
            total_edges += 1
    stats = {
        "heavy_nodes": float(len(heavy)),
        "heavy_edges_pushed": float(total_edges),
        "heavy_worst_chunk_words": float(worst_chunk_words),
    }
    return received, float(worst_chunk_words), stats


def gather_light_edges(
    graph: Graph,
    cluster_nodes: Set[int],
    light: FrozenSet[int],
    bad_nodes: FrozenSet[int],
    n: int,
) -> Tuple[Dict[int, Set[Tuple[int, int]]], float, Dict[str, float]]:
    """Light pull: good cluster nodes learn light-incident outside edges.

    For every good u ∈ C and every outside neighbor v' of u, u sends its
    light-neighbor list L_u (|L_u| words) and receives a |L_u|-bit mask
    (⌈|L_u|/log₂n⌉ words).  u learns the edge {w, v'} for every light
    neighbor w of u adjacent to v'.  Edges are recorded with an arbitrary
    (w, v') orientation pair; the reshuffle later re-keys them by the
    *global* orientation, so the pair order here is irrelevant.

    Rounds = max over directed cross edges (u, v') of
    |L_u| + ⌈|L_u|/word_bits⌉ — each cross edge works in parallel.
    """
    word_bits = max(1, int(math.log2(max(2, n))))
    received: Dict[int, Set[Tuple[int, int]]] = {u: set() for u in cluster_nodes}
    worst_words = 0
    learned = 0
    for u in cluster_nodes:
        if u in bad_nodes:
            continue
        light_neighbors = sorted(w for w in graph.neighbors(u) if w in light)
        if not light_neighbors:
            continue
        outside_neighbors = [v for v in graph.neighbors(u) if v not in cluster_nodes]
        if not outside_neighbors:
            continue
        per_link = len(light_neighbors) + math.ceil(len(light_neighbors) / word_bits)
        worst_words = max(worst_words, per_link)
        for v_prime in outside_neighbors:
            for w in light_neighbors:
                if w != v_prime and graph.has_edge(w, v_prime):
                    received[u].add((w, v_prime))
                    learned += 1
    stats = {
        "light_nodes": float(len(light)),
        "light_edges_learned": float(learned),
        "light_worst_link_words": float(worst_words),
    }
    return received, float(worst_words), stats


def _gather_heavy_batch(
    orientation: Orientation,
    cluster_nodes: Set[int],
    heavy: FrozenSet[int],
    graph: Graph,
    in_cluster: np.ndarray,
) -> Tuple[Dict[int, List[np.ndarray]], float, Dict[str, float]]:
    """Heavy push with array fan-out: same chunks, same rounds, no tuples.

    Each heavy node's out-edges land as ``(chunk, 2)`` row blocks in the
    receiving members' lists; the chunk boundaries — and with them the
    charged ``2·⌈out/links⌉`` words — are identical to the tuple path.
    """
    csr = graph.to_csr()
    received: Dict[int, List[np.ndarray]] = {u: [] for u in cluster_nodes}
    worst_chunk_words = 0
    total_edges = 0
    for v in heavy:
        out = np.sort(np.fromiter(orientation.out_neighbors(v), dtype=np.int64, count=-1))
        if out.size == 0:
            continue
        nbrs = csr.neighbors(v)
        # CSR rows are sorted, so links inherit the ascending order the
        # object plane gets from sorted() — chunk assignment matches.
        links = nbrs[in_cluster[nbrs]]
        if links.size == 0:
            continue
        chunk = math.ceil(out.size / links.size)
        worst_chunk_words = max(worst_chunk_words, 2 * chunk)
        rows = np.empty((out.size, 2), dtype=np.int64)
        rows[:, 0] = v
        rows[:, 1] = out
        for index in range(0, out.size, chunk):
            received[int(links[index // chunk])].append(rows[index : index + chunk])
        total_edges += int(out.size)
    stats = {
        "heavy_nodes": float(len(heavy)),
        "heavy_edges_pushed": float(total_edges),
        "heavy_worst_chunk_words": float(worst_chunk_words),
    }
    return received, float(worst_chunk_words), stats


def _gather_light_batch(
    graph: Graph,
    cluster_nodes: Set[int],
    light: FrozenSet[int],
    bad_nodes: FrozenSet[int],
    n: int,
    in_cluster: np.ndarray,
) -> Tuple[Dict[int, List[np.ndarray]], float, Dict[str, float]]:
    """Light pull with sorted-array intersections instead of edge probes."""
    word_bits = max(1, int(math.log2(max(2, n))))
    csr = graph.to_csr()
    in_light = np.zeros(n, dtype=bool)
    if light:
        in_light[np.fromiter(light, dtype=np.int64, count=len(light))] = True
    received: Dict[int, List[np.ndarray]] = {u: [] for u in cluster_nodes}
    worst_words = 0
    learned = 0
    for u in cluster_nodes:
        if u in bad_nodes:
            continue
        nbrs = csr.neighbors(u)
        light_neighbors = nbrs[in_light[nbrs]]
        if light_neighbors.size == 0:
            continue
        outside = nbrs[~in_cluster[nbrs]]
        if outside.size == 0:
            continue
        per_link = light_neighbors.size + math.ceil(light_neighbors.size / word_bits)
        worst_words = max(worst_words, int(per_link))
        for v_prime in outside.tolist():
            ws = np.intersect1d(
                light_neighbors, csr.neighbors(v_prime), assume_unique=True
            )
            ws = ws[ws != v_prime]
            if ws.size == 0:
                continue
            rows = np.empty((ws.size, 2), dtype=np.int64)
            rows[:, 0] = ws
            rows[:, 1] = v_prime
            received[u].append(rows)
            learned += int(ws.size)
    stats = {
        "light_nodes": float(len(light)),
        "light_edges_learned": float(learned),
        "light_worst_link_words": float(worst_words),
    }
    return received, float(worst_words), stats


def gather_outside_edges(
    graph: Graph,
    orientation: Orientation,
    cluster_nodes: Set[int],
    heavy: FrozenSet[int],
    light: FrozenSet[int],
    bad_nodes: FrozenSet[int],
    cluster_degree: Dict[int, int],
    include_light: bool = True,
    plane: str = "object",
) -> GatherResult:
    """Run both gather mechanisms for one cluster.

    ``include_light=False`` is the K4 variant (§3), where light-incident
    outside edges are never brought in — C-light nodes list those K4
    themselves.  On the batch plane the received pairs are ``(k, 2)``
    arrays; rounds and
    stats are identical to the object plane (a member never receives
    the same pair twice: heavy rows start at a C-heavy node and light
    rows at a C-light one, so the mechanisms cannot collide, and each
    mechanism emits distinct pairs per member).
    """
    if plane == "batch":
        in_cluster = np.zeros(graph.num_nodes, dtype=bool)
        if cluster_nodes:
            in_cluster[np.fromiter(cluster_nodes, np.int64, len(cluster_nodes))] = True
        heavy_blocks, heavy_rounds, heavy_stats = _gather_heavy_batch(
            orientation, cluster_nodes, heavy, graph, in_cluster
        )
        if include_light:
            light_blocks, light_rounds, light_stats = _gather_light_batch(
                graph, cluster_nodes, light, bad_nodes, graph.num_nodes, in_cluster
            )
        else:
            light_blocks, light_rounds, light_stats = (
                {u: [] for u in cluster_nodes},
                0.0,
                {"light_nodes": float(len(light)), "light_edges_learned": 0.0},
            )
        empty = np.empty((0, 2), dtype=np.int64)
        received: Dict[int, GatheredPairs] = {
            u: (
                np.concatenate(heavy_blocks[u] + light_blocks[u])
                if heavy_blocks[u] or light_blocks[u]
                else empty
            )
            for u in cluster_nodes
        }
        max_received = max((rows.shape[0] for rows in received.values()), default=0)
    else:
        heavy_received, heavy_rounds, heavy_stats = gather_heavy_out_edges(
            orientation, cluster_nodes, heavy, cluster_degree, graph
        )
        if include_light:
            light_received, light_rounds, light_stats = gather_light_edges(
                graph, cluster_nodes, light, bad_nodes, graph.num_nodes
            )
        else:
            light_received, light_rounds, light_stats = (
                {u: set() for u in cluster_nodes},
                0.0,
                {"light_nodes": float(len(light)), "light_edges_learned": 0.0},
            )
        received = {u: heavy_received[u] | light_received[u] for u in cluster_nodes}
        max_received = max((len(s) for s in received.values()), default=0)
    stats = {**heavy_stats, **light_stats}
    stats["received_max_per_node"] = float(max_received)
    return GatherResult(
        received=received,
        heavy_push_rounds=heavy_rounds,
        light_pull_rounds=light_rounds,
        stats=stats,
    )
