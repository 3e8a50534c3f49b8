"""Unit tests for repro.graphs.cliques (ground-truth enumeration)."""

import itertools
from math import comb

import pytest

from repro.graphs import cliques as cliques_module
from repro.graphs.cliques import (
    clique_table,
    cliques_containing_edge,
    cliques_touching_edges,
    count_cliques,
    enumerate_cliques,
    triangles,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import complete_graph, cycle_graph, erdos_renyi, planted_cliques
from repro.graphs.graph import Graph
from repro.graphs.io import to_networkx
from repro.graphs.table import CliqueTable


class TestSmallCases:
    def test_p1_is_nodes(self, triangle):
        assert enumerate_cliques(triangle, 1) == {
            frozenset((0,)),
            frozenset((1,)),
            frozenset((2,)),
        }

    def test_p2_is_edges(self, triangle):
        assert enumerate_cliques(triangle, 2) == {
            frozenset(e) for e in triangle.edges()
        }

    def test_triangle_has_one_k3(self, triangle):
        assert enumerate_cliques(triangle, 3) == {frozenset((0, 1, 2))}

    def test_square_has_no_k3(self, square):
        assert enumerate_cliques(square, 3) == set()

    def test_invalid_p(self, triangle):
        with pytest.raises(ValueError):
            enumerate_cliques(triangle, 0)

    def test_p_larger_than_n(self, triangle):
        assert enumerate_cliques(triangle, 4) == set()

    def test_empty_graph(self):
        assert enumerate_cliques(Graph(5), 3) == set()


class TestCompleteGraphCounts:
    @pytest.mark.parametrize("n,p", [(5, 3), (6, 4), (7, 5), (8, 6)])
    def test_binomial_counts(self, n, p):
        assert count_cliques(complete_graph(n), p) == comb(n, p)

    def test_every_output_is_a_clique(self):
        g = complete_graph(6)
        for clique in enumerate_cliques(g, 4):
            assert len(clique) == 4


class TestAgainstNetworkx:
    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_random_graph_matches_networkx(self, p):
        g = erdos_renyi(35, 0.35, seed=p)
        nx_graph = to_networkx(g)
        import networkx as nx

        expected = set()
        for maximal in nx.find_cliques(nx_graph):
            if len(maximal) >= p:
                for sub in itertools.combinations(sorted(maximal), p):
                    expected.add(frozenset(sub))
        assert enumerate_cliques(g, p) == expected

    def test_planted_graph_matches_networkx(self, planted):
        import networkx as nx

        nx_graph = to_networkx(planted)
        expected = set()
        for maximal in nx.find_cliques(nx_graph):
            if len(maximal) >= 4:
                for sub in itertools.combinations(sorted(maximal), 4):
                    expected.add(frozenset(sub))
        assert enumerate_cliques(planted, 4) == expected


class TestPlantedRecovery:
    def test_planted_k6_yields_k4s(self):
        g = planted_cliques(30, [6], background_p=0.0, seed=1)
        assert count_cliques(g, 4) == comb(6, 4)

    def test_planted_k5_k4(self):
        g = planted_cliques(30, [5, 4], background_p=0.0, seed=2)
        assert count_cliques(g, 4) == comb(5, 4) + 1

    def test_cycle_has_no_cliques(self):
        g = cycle_graph(10)
        assert count_cliques(g, 3) == 0


class TestFilters:
    def test_cliques_containing_edge(self):
        g = complete_graph(5)
        cliques = enumerate_cliques(g, 3)
        containing = cliques_containing_edge(cliques, 0, 1)
        assert len(containing) == 3  # third vertex from remaining 3

    def test_cliques_touching_edges(self):
        g = complete_graph(4)
        cliques = enumerate_cliques(g, 3)
        touching = cliques_touching_edges(cliques, [(0, 1)])
        assert touching == {c for c in cliques if 0 in c and 1 in c}

    def test_touching_empty_edges(self):
        g = complete_graph(4)
        assert cliques_touching_edges(enumerate_cliques(g, 3), []) == set()

    def test_triangles_wrapper(self, triangle):
        assert triangles(triangle) == {frozenset((0, 1, 2))}


class TestTooFewEdgesForKp:
    @pytest.fixture
    def enumerations(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            cliques_module, "_enumerate_python", lambda graph, p: calls.append(p)
        )
        monkeypatch.setattr(CSRGraph, "clique_result", lambda csr, p: calls.append(p))
        return calls

    @pytest.mark.parametrize("backend", ["auto", "python", "csr"])
    def test_empty_table_without_enumeration(self, enumerations, backend):
        table = clique_table(Graph(160), 4, backend=backend)
        assert len(table) == 0 and table.p == 4
        k4_minus_an_edge = complete_graph(4)
        k4_minus_an_edge.remove_edge(0, 1)
        assert clique_table(k4_minus_an_edge, 4, backend=backend) == CliqueTable.empty(4)
        assert clique_table(Graph(3), 2, backend=backend).rows.shape == (0, 2)
        assert enumerations == []

    def test_a_graph_with_just_enough_edges_is_enumerated(self):
        table = clique_table(complete_graph(4), 4, backend="python")
        assert table.rows.tolist() == [[0, 1, 2, 3]]
        assert len(clique_table(Graph(1), 1)) == 1
