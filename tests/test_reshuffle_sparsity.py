"""Tests for reshuffle (§2.4.3 ownership) and sparsity-aware listing."""

import numpy as np
import pytest

from repro.congest.ledger import RoundLedger
from repro.congest.routing import ClusterRouter, CostModel
from repro.core.config import ExecutionConfig
from repro.core.params import AlgorithmParameters
from repro.core.reshuffle import owner_assignment, reshuffle_edges
from repro.core.sparsity_aware import sparsity_aware_listing
from repro.graphs.cliques import cliques_touching_edges, enumerate_cliques
from repro.graphs.generators import complete_graph, erdos_renyi
from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.orientation import degeneracy_orientation


class TestOwnerAssignment:
    def test_every_node_has_owner(self):
        owner_of, new_id = owner_assignment([3, 7, 11], n=30)
        assert set(owner_of.keys()) == set(range(30))
        assert set(owner_of.values()) <= {3, 7, 11}

    def test_contiguous_ranges(self):
        owner_of, _ = owner_assignment([0, 1], n=10)
        assert all(owner_of[x] == 0 for x in range(5))
        assert all(owner_of[x] == 1 for x in range(5, 10))

    def test_new_ids_sorted(self):
        _, new_id = owner_assignment([9, 4], n=10)
        assert new_id == {4: 1, 9: 2}

    def test_balanced_load(self):
        owner_of, _ = owner_assignment(list(range(7)), n=100)
        from collections import Counter

        loads = Counter(owner_of.values())
        assert max(loads.values()) - min(loads.values()) <= 15  # ceil(100/7)=15


class TestReshuffle:
    def _run(self, graph, members):
        orientation = degeneracy_orientation(graph)
        router = ClusterRouter(members, capacity=4, n=graph.num_nodes)
        ledger = RoundLedger()
        gathered = {u: set() for u in members}
        result = reshuffle_edges(
            graph, orientation, members, gathered, router, ledger, "reshuffle"
        )
        return result, orientation

    def test_every_incident_edge_owned_by_source_owner(self):
        g = erdos_renyi(20, 0.4, seed=3)
        members = list(range(8))
        result, orientation = self._run(g, members)
        for owner, edges in result.owned.items():
            for src, dst in edges:
                assert result.owner_of[src] == owner

    def test_members_incident_edges_covered(self):
        g = erdos_renyi(20, 0.4, seed=3)
        members = list(range(8))
        result, orientation = self._run(g, members)
        all_owned = {canonical_edge(s, d) for edges in result.owned.values() for s, d in edges}
        for u in members:
            for v in g.neighbors(u):
                assert canonical_edge(u, v) in all_owned

    def test_gathered_edges_routed(self):
        g = Graph(6, complete_graph(4).edge_set())
        g.add_edge(4, 5)
        g.add_edge(4, 0)
        orientation = degeneracy_orientation(g)
        members = [0, 1, 2, 3]
        router = ClusterRouter(members, capacity=3, n=6)
        ledger = RoundLedger()
        gathered = {0: {(4, 5)}, 1: set(), 2: set(), 3: set()}
        result = reshuffle_edges(g, orientation, members, gathered, router, ledger, "r")
        all_owned = {canonical_edge(s, d) for edges in result.owned.values() for s, d in edges}
        assert (4, 5) in all_owned

    def test_rounds_charged(self):
        g = erdos_renyi(20, 0.4, seed=3)
        result, _ = self._run(g, list(range(8)))
        assert result.rounds > 0


class TestSparsityAwareListing:
    def _cluster_listing(
        self, graph, members, p, goal_edges=None, seed=0, plane="object"
    ):
        orientation = degeneracy_orientation(graph)
        router = ClusterRouter(
            members, capacity=4, n=graph.num_nodes, cost_model=CostModel(routing_slack=1)
        )
        ledger = RoundLedger()
        gathered = {u: set() for u in members}
        # Give member 0 global knowledge so the cluster "knows" all edges
        # (stand-in for a completed gather phase).
        gathered[members[0]] = {
            orientation.direction(u, v) for u, v in graph.edges()
        }
        # Tuple sets in and out on the object plane, (k, 2) arrays on
        # the batch plane; the listing runs on the reshuffle's plane.
        if plane != "object":
            gathered = {
                u: np.asarray(sorted(pairs), dtype=np.int64).reshape(-1, 2)
                for u, pairs in gathered.items()
            }
        reshuffled = reshuffle_edges(
            graph, orientation, members, gathered, router, ledger, "r", plane=plane
        )
        params = AlgorithmParameters(p=p, execution=ExecutionConfig(plane=plane))
        if goal_edges is None:
            goal_edges = frozenset(graph.edges())
        rng = np.random.default_rng(seed)
        return (
            sparsity_aware_listing(
                graph.num_nodes,
                members,
                reshuffled.owned,
                goal_edges,
                params,
                router,
                ledger,
                rng,
                "sparsity",
            ),
            ledger,
        )

    def test_lists_all_cliques_with_full_goal(self):
        g = erdos_renyi(24, 0.45, seed=4)
        outcome, _ = self._cluster_listing(g, list(range(16)), p=4)
        assert outcome.cliques == enumerate_cliques(g, 4)

    @pytest.mark.parametrize("plane", ["object", "batch"])
    def test_respects_goal_edge_filter(self, plane):
        g = complete_graph(6)
        goal = frozenset({(0, 1)})
        outcome, _ = self._cluster_listing(
            g, list(range(6)), p=3, goal_edges=goal, plane=plane
        )
        truth = cliques_touching_edges(enumerate_cliques(g, 3), goal)
        assert outcome.cliques == truth

    def test_attribution_uses_cluster_members(self):
        g = erdos_renyi(24, 0.4, seed=5)
        members = list(range(16))
        outcome, _ = self._cluster_listing(g, members, p=4)
        assert set(outcome.owners.tolist()) <= set(members)

    def test_attribution_matches_radix_owner(self):
        from repro.core.partition import random_partition, responsible_new_id

        g = erdos_renyi(24, 0.4, seed=6)
        members = list(range(16))
        p = 4
        outcome, _ = self._cluster_listing(g, members, p=p, seed=3)
        # Re-derive the partition: it is the listing's first draw from the
        # seeded rng, so seed determinism makes this exact.
        s = AlgorithmParameters(p=p).num_parts(len(members))
        partition = random_partition(g.num_nodes, s, np.random.default_rng(3))
        assert outcome.table.shape[0] > 0
        for owner, row in zip(outcome.owners.tolist(), outcome.table.tolist()):
            parts = [partition.part_of[v] for v in sorted(row)]
            assert owner == members[responsible_new_id(parts, s, p) - 1]

    def test_rounds_scale_with_density(self):
        sparse = erdos_renyi(32, 0.1, seed=7)
        dense = erdos_renyi(32, 0.6, seed=7)
        out_sparse, _ = self._cluster_listing(sparse, list(range(16)), p=4)
        out_dense, _ = self._cluster_listing(dense, list(range(16)), p=4)
        assert out_dense.learning_rounds >= out_sparse.learning_rounds

    def test_stats_loads_reported(self):
        g = erdos_renyi(24, 0.4, seed=8)
        outcome, _ = self._cluster_listing(g, list(range(16)), p=4)
        assert outcome.stats["max_recv_words"] > 0
        assert outcome.stats["known_edges"] == g.num_edges

    def test_triangle_case(self):
        g = complete_graph(8)
        outcome, _ = self._cluster_listing(g, list(range(8)), p=3)
        assert len(outcome.cliques) == 56  # C(8,3)
