"""Tests for the gather phase (§2.4.1–2.4.2): outside edges reach the cluster."""

import pytest

from repro.core.gather import (
    gather_heavy_out_edges,
    gather_light_edges,
    gather_outside_edges,
)
from repro.core.heavy_light import classify_outside_neighbors
from repro.graphs.generators import complete_graph, erdos_renyi
from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.orientation import Orientation, degeneracy_orientation


def cluster_knows_edge(received, u, v):
    target = canonical_edge(u, v)
    for edges in received.values():
        for a, b in edges:
            if canonical_edge(a, b) == target:
                return True
    return False


class TestHeavyPush:
    def test_heavy_out_edges_arrive(self):
        # Cluster K4 {0..3}; heavy node 4 adjacent to all members plus an
        # outside edge (4, 5).
        g = Graph(6, complete_graph(4).edge_set())
        for u in range(4):
            g.add_edge(4, u)
        g.add_edge(4, 5)
        # Orient all of node 4's edges away from it so the heavy push has
        # something to carry (node 4 comes first in the order).
        position = {v: i for i, v in enumerate([4, 5, 0, 1, 2, 3])}
        pairs = [(u, v) if position[u] < position[v] else (v, u) for u, v in g.edges()]
        orientation = Orientation.from_pairs(
            g.num_nodes, [u for u, _ in pairs], [v for _, v in pairs]
        )
        split = classify_outside_neighbors(g, set(range(4)), heavy_threshold=2)
        assert 4 in split.heavy
        received, rounds, stats = gather_heavy_out_edges(
            orientation, set(range(4)), split.heavy, g
        )
        # Every out-edge of node 4 is known to some member — in particular
        # the fully-outside edge (4, 5).
        assert orientation.out_neighbors(4).size
        for w in orientation.out_neighbors(4):
            assert cluster_knows_edge(received, 4, w)
        assert cluster_knows_edge(received, 4, 5)
        assert rounds > 0

    def test_round_cost_is_chunked(self):
        # Heavy node with many out-edges split over its cluster links.
        g = Graph(24, complete_graph(4).edge_set())
        for u in range(4):
            g.add_edge(4, u)
        for other in range(5, 24):
            g.add_edge(4, other)
        orientation = degeneracy_orientation(g)
        split = classify_outside_neighbors(g, set(range(4)), heavy_threshold=2)
        received, rounds, stats = gather_heavy_out_edges(
            orientation, set(range(4)), split.heavy, g
        )
        out_deg = len(orientation.out_neighbors(4))
        # 2 words per edge, chunks of ceil(out/4) per link.
        assert rounds == 2 * -(-out_deg // 4)

    def test_no_heavy_nodes_is_free(self):
        g = complete_graph(4)
        orientation = degeneracy_orientation(g)
        received, rounds, stats = gather_heavy_out_edges(
            orientation, set(range(4)), frozenset(), g
        )
        assert rounds == 0
        assert all(not s for s in received.values())


class TestLightPull:
    def test_light_light_outside_edge_learned(self):
        # Cluster K4 {0..3}; light nodes 4, 5 each adjacent to members 0,1;
        # outside edge (4,5) must become known via good node 0 or 1.
        g = Graph(6, complete_graph(4).edge_set())
        for light in (4, 5):
            g.add_edge(light, 0)
            g.add_edge(light, 1)
        g.add_edge(4, 5)
        split = classify_outside_neighbors(g, set(range(4)), heavy_threshold=5)
        assert split.light == frozenset({4, 5})
        received, rounds, stats = gather_light_edges(
            g, set(range(4)), split.light, frozenset(), g.num_nodes
        )
        assert cluster_knows_edge(received, 4, 5)
        assert rounds > 0

    def test_bad_nodes_do_not_pull(self):
        g = Graph(6, complete_graph(4).edge_set())
        for light in (4, 5):
            g.add_edge(light, 0)
        g.add_edge(4, 5)
        split = classify_outside_neighbors(g, set(range(4)), heavy_threshold=5)
        received, rounds, stats = gather_light_edges(
            g, set(range(4)), split.light, frozenset({0}), g.num_nodes
        )
        # Node 0 (the only member adjacent to the light nodes) is bad.
        assert not cluster_knows_edge(received, 4, 5)

    def test_light_heavy_edge_learned_via_good_member(self):
        # v=4 light (adjacent to 0,1), v'=5 adjacent to 0 and to 4.
        g = Graph(6, complete_graph(4).edge_set())
        g.add_edge(4, 0)
        g.add_edge(4, 1)
        g.add_edge(5, 0)
        g.add_edge(4, 5)
        split = classify_outside_neighbors(g, set(range(4)), heavy_threshold=5)
        received, rounds, stats = gather_light_edges(
            g, set(range(4)), split.light, frozenset(), g.num_nodes
        )
        # Good node 0 has light neighbor 4 and outside neighbor 5 → learns (4,5).
        assert (4, 5) in received[0] or (5, 4) in received[0]


class TestCombinedGather:
    def test_theorem_2_4_2_every_needed_edge_known(self):
        """§2.4.2: every outside edge that forms a K4 with a cluster goal
        edge is known to the cluster after gathering."""
        rng_graph = erdos_renyi(30, 0.4, seed=8)
        cluster_nodes = set(range(10))
        orientation = degeneracy_orientation(rng_graph)
        split = classify_outside_neighbors(rng_graph, cluster_nodes, heavy_threshold=3)
        gather = gather_outside_edges(
            rng_graph,
            orientation,
            cluster_nodes,
            split.heavy,
            split.light,
            frozenset(),  # no bad nodes
        )
        # Enumerate K4s with >= 1 edge inside the cluster and check every
        # fully-outside edge of each is known.
        from repro.graphs.cliques import enumerate_cliques

        for clique in enumerate_cliques(rng_graph, 4):
            inside = [v for v in clique if v in cluster_nodes]
            if len(inside) < 2:
                continue
            members = sorted(clique)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    if u not in cluster_nodes and v not in cluster_nodes:
                        assert cluster_knows_edge(gather.received, u, v), (
                            f"outside edge ({u},{v}) of K4 {members} unknown"
                        )

    def test_k4_mode_skips_light(self):
        g = Graph(6, complete_graph(4).edge_set())
        g.add_edge(4, 0)
        g.add_edge(4, 1)
        g.add_edge(5, 0)
        g.add_edge(4, 5)
        split = classify_outside_neighbors(g, set(range(4)), heavy_threshold=5)
        gather = gather_outside_edges(
            g,
            degeneracy_orientation(g),
            set(range(4)),
            split.heavy,
            split.light,
            frozenset(),
            include_light=False,
        )
        assert gather.light_pull_rounds == 0
        assert not cluster_knows_edge(gather.received, 4, 5)

    def test_stats_present(self):
        g = erdos_renyi(20, 0.3, seed=2)
        cluster_nodes = set(range(8))
        split = classify_outside_neighbors(g, cluster_nodes, heavy_threshold=2)
        gather = gather_outside_edges(
            g,
            degeneracy_orientation(g),
            cluster_nodes,
            split.heavy,
            split.light,
            frozenset(),
        )
        for key in ("heavy_nodes", "light_nodes", "received_max_per_node"):
            assert key in gather.stats
