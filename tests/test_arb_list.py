"""Tests for Algorithm ARB-LIST (Theorem 2.9) and Algorithm LIST (Theorem 2.8)."""

import numpy as np
import pytest

from repro.congest.ledger import RoundLedger
from repro.core.arb_list import ArbListState, arb_list
from repro.core.config import ExecutionConfig
from repro.core.list_iteration import list_once
from repro.core.listing import list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.graphs.cliques import cliques_touching_edges, enumerate_cliques
from repro.graphs.generators import clustered_graph, erdos_renyi
from repro.graphs.graph import Graph
from repro.graphs.keys import key_pairs
from repro.graphs.orientation import Orientation, degeneracy_orientation
from repro.workloads import create_workload


def rows(edges):
    """An ``(m, 2)`` edge array as a set of row tuples."""
    return set(map(tuple, np.asarray(edges).tolist()))


def key_rows(keys, n):
    """Sorted canonical keys ``u·n + v`` as a set of ``(u, v)`` tuples."""
    return rows(key_pairs(keys, n))


def oriented_rows(orientation):
    """The edges an orientation covers, as canonical ``(u, v)`` tuples."""
    pairs = key_pairs(orientation.keys, orientation.num_nodes)
    return rows(np.sort(pairs, axis=1))


def fresh_state(graph, threshold=None, params=None):
    orientation = degeneracy_orientation(graph)
    arboricity = max(1, orientation.max_out_degree)
    if threshold is None:
        threshold = max(1, arboricity // 4)
    return ArbListState(
        n=graph.num_nodes,
        er_edges=graph.edge_set(),
        orientation=orientation,
        arboricity=arboricity,
        threshold=threshold,
    )


class TestArbListInvariants:
    def test_goal_edge_obligation_fulfilled(self):
        """Theorem 2.9: every Kp with >= 1 edge in Êm is listed."""
        g = erdos_renyi(60, 0.4, seed=10)
        params = AlgorithmParameters(p=4)
        state = fresh_state(g, threshold=6)
        ledger = RoundLedger()
        outcome = arb_list(state, params, np.random.default_rng(0), ledger)
        truth = enumerate_cliques(g, 4)
        obligated = cliques_touching_edges(truth, outcome.goal_edges)
        assert obligated <= outcome.cliques

    def test_listed_cliques_are_real(self):
        g = erdos_renyi(60, 0.4, seed=10)
        params = AlgorithmParameters(p=4)
        state = fresh_state(g, threshold=6)
        outcome = arb_list(state, params, np.random.default_rng(0), RoundLedger())
        truth = enumerate_cliques(g, 4)
        assert outcome.cliques <= truth

    def test_edge_partition_preserved(self):
        g = erdos_renyi(60, 0.4, seed=11)
        state = fresh_state(g, threshold=6)
        params = AlgorithmParameters(p=4)
        outcome = arb_list(state, params, np.random.default_rng(0), RoundLedger())
        # Every original edge is either a fulfilled goal edge or still in
        # the state (Ês ∪ Êr).
        es, er = key_rows(state.es_keys, state.n), key_rows(state.er_keys, state.n)
        reconstructed = rows(outcome.goal_edges) | es | er
        assert reconstructed == g.edge_set()
        assert not rows(outcome.goal_edges) & (es | er)

    def test_er_shrinks_geometrically(self):
        g = erdos_renyi(80, 0.35, seed=12)
        state = fresh_state(g, threshold=6)
        params = AlgorithmParameters(p=4)
        er_before = state.er_keys.size
        arb_list(state, params, np.random.default_rng(0), RoundLedger())
        # Theorem 2.9 target: |Êr| ≤ |Er|/4 (decomposition gives /6, bad
        # edges can add up to 1/25 at paper thresholds → none here).
        assert state.er_keys.size <= er_before / 4

    def test_es_orientation_covers_es(self):
        g = erdos_renyi(80, 0.15, seed=13)
        state = fresh_state(g, threshold=5)
        params = AlgorithmParameters(p=4)
        arb_list(state, params, np.random.default_rng(0), RoundLedger())
        covered = oriented_rows(state.es_orientation)
        assert covered == key_rows(state.es_keys, state.n)

    def test_global_orientation_restricted_to_survivors(self):
        g = erdos_renyi(60, 0.4, seed=14)
        state = fresh_state(g, threshold=6)
        params = AlgorithmParameters(p=4)
        arb_list(state, params, np.random.default_rng(0), RoundLedger())
        oriented = oriented_rows(state.orientation)
        assert oriented == key_rows(state.current_keys(), state.n)

    def test_ledger_phases_charged(self):
        g = erdos_renyi(60, 0.4, seed=15)
        state = fresh_state(g, threshold=6)
        params = AlgorithmParameters(p=4)
        ledger = RoundLedger()
        arb_list(state, params, np.random.default_rng(0), ledger, phase_prefix="t")
        names = {p.name for p in ledger.phases()}
        assert "t/expander_decomposition" in names
        assert any(name.startswith("t/") and "learn_edges" in name for name in names)

    def test_bad_edges_join_er(self):
        # Force bad nodes via a tiny bad threshold.  phi = 0.1 splits the
        # two blocks into two clusters whose nodes are outside neighbours
        # of each other; one cluster has no outside neighbours to demote by.
        g = clustered_graph(2, 20, intra_p=0.9, inter_edges_per_pair=30, seed=16)
        params = AlgorithmParameters(p=4, bad_scale=1e-6, heavy_scale=100.0, phi=0.1)
        state = fresh_state(g, threshold=5)
        outcome = arb_list(state, params, np.random.default_rng(0), RoundLedger())
        assert len(outcome.bad_edges) > 0
        assert rows(outcome.bad_edges) <= key_rows(state.er_keys, state.n)

    def test_demoted_bad_edges_leave_the_goal_and_join_er(self):
        """A caveman graph whose blocks are separate clusters, every
        outside node light and the bad threshold at its floor of 1:
        edges do get demoted, and each lands in Êr, not among the goals."""
        g = clustered_graph(4, 24, intra_p=0.8, inter_edges_per_pair=6, seed=3)
        params = AlgorithmParameters(p=4, bad_scale=1e-6, heavy_scale=100.0, phi=0.05)
        state = fresh_state(g, threshold=5)
        outcome = arb_list(state, params, np.random.default_rng(0), RoundLedger())
        assert outcome.num_clusters > 1 and len(outcome.bad_edges)
        bad = rows(outcome.bad_edges)
        assert bad <= key_rows(state.er_keys, state.n)
        assert not bad & rows(outcome.goal_edges)
        assert outcome.stats["bad_edges"] == len(bad)


class TestClusterMakespans:
    def test_overlay_makespans_reach_the_ledger(self):
        """The cluster router prices reshuffle, partition and learn_edges
        on the overlay; ARB-LIST charges each such row with its slowest
        cluster's makespan (clique rows stay pinned by the topology
        differential suite)."""
        g = create_workload("er", density=0.5).instance(96, seed=1)
        config = ExecutionConfig(topology="grid:8@bw=0.5")
        ledger = list_cliques_congest(
            g, 4, params=AlgorithmParameters(p=4, execution=config)
        ).ledger
        rows = {phase.name: phase for phase in ledger.phases()}
        learn = rows["outer[0]/arb[0]/learn_edges"]
        assert learn.makespan == pytest.approx(2.0 * learn.rounds)
        for phase in ("reshuffle", "partition", "learn_edges"):
            row = rows[f"outer[0]/arb[0]/{phase}"]
            assert row.makespan is not None and row.makespan > row.rounds


class TestListOnce:
    def test_lists_everything_outside_final_es(self):
        """Theorem 2.8: all Kp with an edge outside Ẽs are listed."""
        g = erdos_renyi(70, 0.4, seed=20)
        orientation = degeneracy_orientation(g)
        arboricity = max(1, orientation.max_out_degree)
        params = AlgorithmParameters(p=4)
        outcome = list_once(
            g, orientation, arboricity, params, np.random.default_rng(0), RoundLedger()
        )
        truth = enumerate_cliques(g, 4)
        removed = g.edge_set() - key_rows(outcome.es_keys, g.num_nodes)
        obligated = cliques_touching_edges(truth, removed)
        assert obligated <= outcome.cliques
        assert outcome.cliques <= truth

    def test_arboricity_halves(self):
        g = erdos_renyi(70, 0.5, seed=21)
        orientation = degeneracy_orientation(g)
        arboricity = max(1, orientation.max_out_degree)
        params = AlgorithmParameters(p=4)
        outcome = list_once(
            g, orientation, arboricity, params, np.random.default_rng(0), RoundLedger()
        )
        # Theorem 2.8: witness out-degree of Ẽs ≤ A/2 (+1 slack for
        # integrality at small scale).
        assert outcome.es_orientation.max_out_degree <= arboricity / 2 + 1

    def test_iteration_count_logarithmic(self):
        g = erdos_renyi(70, 0.4, seed=22)
        orientation = degeneracy_orientation(g)
        params = AlgorithmParameters(p=4)
        outcome = list_once(
            g,
            orientation,
            max(1, orientation.max_out_degree),
            params,
            np.random.default_rng(0),
            RoundLedger(),
        )
        import math

        assert outcome.iterations <= math.ceil(math.log2(70)) + 2

    def test_empty_graph(self):
        g = Graph(10)
        params = AlgorithmParameters(p=4)
        outcome = list_once(
            g, Orientation(10), 1, params, np.random.default_rng(0), RoundLedger()
        )
        assert not outcome.cliques and not outcome.es_keys.size
