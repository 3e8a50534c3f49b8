"""Tests for heavy/light classification and bad-edge demotion (§2.4.1)."""

import numpy as np
import pytest

from repro.core.bad_edges import bad_edge_fraction_bound, split_bad_edges
from repro.core.heavy_light import classify_outside_neighbors
from repro.graphs.generators import complete_graph, star_graph
from repro.graphs.graph import Graph


def rows(edges):
    """An ``(m, 2)`` edge array as a set of row tuples."""
    return set(map(tuple, np.asarray(edges).tolist()))


def make_cluster_with_satellites():
    """A K4 cluster {0,1,2,3}; node 4 sees 3 members, node 5 sees 1."""
    g = complete_graph(4)
    g2 = Graph(6, g.edge_set())
    g2.add_edge(4, 0)
    g2.add_edge(4, 1)
    g2.add_edge(4, 2)
    g2.add_edge(5, 3)
    return g2


class TestClassification:
    def test_heavy_above_threshold(self):
        g = make_cluster_with_satellites()
        split = classify_outside_neighbors(g, {0, 1, 2, 3}, heavy_threshold=2)
        assert split.heavy == frozenset({4})
        assert split.light == frozenset({5})

    def test_all_light_with_high_threshold(self):
        g = make_cluster_with_satellites()
        split = classify_outside_neighbors(g, {0, 1, 2, 3}, heavy_threshold=10)
        assert not split.heavy
        assert split.light == frozenset({4, 5})

    def test_cluster_degree_counts(self):
        g = make_cluster_with_satellites()
        split = classify_outside_neighbors(g, {0, 1, 2, 3}, heavy_threshold=2)
        assert split.cluster_degree == {4: 3, 5: 1}

    def test_no_outside_neighbors(self):
        g = complete_graph(4)
        split = classify_outside_neighbors(g, {0, 1, 2, 3}, heavy_threshold=1)
        assert not split.heavy and not split.light

    def test_rounds_constant(self):
        g = make_cluster_with_satellites()
        split = classify_outside_neighbors(g, {0, 1, 2, 3}, heavy_threshold=2)
        assert split.rounds == 2

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            classify_outside_neighbors(complete_graph(3), {0, 1}, heavy_threshold=0)

    def test_boundary_is_strict(self):
        # g_{v,C} == threshold → light (paper: strictly greater is heavy).
        g = make_cluster_with_satellites()
        split = classify_outside_neighbors(g, {0, 1, 2, 3}, heavy_threshold=3)
        assert 4 in split.light


class TestBadEdges:
    def test_no_bad_nodes_at_paper_threshold(self):
        g = make_cluster_with_satellites()
        cluster_edges = frozenset(complete_graph(4).edges())
        split = classify_outside_neighbors(g, {0, 1, 2, 3}, heavy_threshold=10)
        bad = split_bad_edges(g, {0, 1, 2, 3}, cluster_edges, split.light, 1000)
        assert not bad.bad_nodes
        assert rows(bad.goal_edges) == cluster_edges

    def test_bad_nodes_forced_by_low_threshold(self):
        # Star of light satellites around members 0 and 1.
        g = Graph(10, complete_graph(4).edge_set())
        for leaf in range(4, 10):
            g.add_edge(0, leaf)
            g.add_edge(1, leaf)
        split = classify_outside_neighbors(g, {0, 1, 2, 3}, heavy_threshold=5)
        assert split.light == frozenset(range(4, 10))
        bad = split_bad_edges(
            g, {0, 1, 2, 3}, frozenset(complete_graph(4).edges()), split.light, 3
        )
        assert bad.bad_nodes == frozenset({0, 1})
        assert rows(bad.bad_edges) == {(0, 1)}
        assert (0, 1) not in rows(bad.goal_edges)

    def test_single_bad_endpoint_keeps_edge(self):
        g = Graph(10, complete_graph(4).edge_set())
        for leaf in range(4, 10):
            g.add_edge(0, leaf)  # only node 0 becomes bad
        split = classify_outside_neighbors(g, {0, 1, 2, 3}, heavy_threshold=5)
        bad = split_bad_edges(
            g, {0, 1, 2, 3}, frozenset(complete_graph(4).edges()), split.light, 3
        )
        assert bad.bad_nodes == frozenset({0})
        assert not rows(bad.bad_edges)  # both endpoints must be bad

    def test_light_degree_reported(self):
        g = make_cluster_with_satellites()
        split = classify_outside_neighbors(g, {0, 1, 2, 3}, heavy_threshold=10)
        bad = split_bad_edges(
            g, {0, 1, 2, 3}, frozenset(complete_graph(4).edges()), split.light, 100
        )
        assert bad.light_degree[0] == 1  # node 0 sees light node 4
        assert bad.light_degree[3] == 1  # node 3 sees light node 5

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            split_bad_edges(complete_graph(3), {0, 1}, frozenset(), frozenset(), 0)

    def test_paper_fraction_constant(self):
        assert bad_edge_fraction_bound() == pytest.approx(1 / 25)

    def test_goal_and_bad_partition_cluster_edges(self):
        g = Graph(10, complete_graph(4).edge_set())
        for leaf in range(4, 10):
            g.add_edge(0, leaf)
            g.add_edge(1, leaf)
            g.add_edge(2, leaf)
        split = classify_outside_neighbors(g, {0, 1, 2, 3}, heavy_threshold=6)
        cluster_edges = frozenset(complete_graph(4).edges())
        bad = split_bad_edges(g, {0, 1, 2, 3}, cluster_edges, split.light, 3)
        assert rows(bad.bad_edges) | rows(bad.goal_edges) == cluster_edges
        assert not rows(bad.bad_edges) & rows(bad.goal_edges)
        assert len(bad.bad_edges) + len(bad.goal_edges) == len(cluster_edges)
