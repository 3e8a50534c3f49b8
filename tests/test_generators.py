"""Unit tests for repro.graphs.generators."""

import itertools

import numpy as np
import pytest

from repro.graphs.cliques import count_cliques
from repro.graphs.generators import (
    barbell_graph,
    bounded_arboricity_graph,
    clustered_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi,
    gnm_random_graph,
    graph_with_density_for_cliques,
    path_graph,
    planted_cliques,
    power_law_graph,
    random_multipartite,
    random_regular,
    star_graph,
)
from repro.graphs.properties import degeneracy, is_clique, max_degree


class TestErdosRenyi:
    def test_p_zero_is_empty(self):
        assert erdos_renyi(20, 0.0, seed=1).num_edges == 0

    def test_p_one_is_complete(self):
        g = erdos_renyi(10, 1.0, seed=1)
        assert g.num_edges == 45

    def test_reproducible(self):
        a = erdos_renyi(30, 0.3, seed=42)
        b = erdos_renyi(30, 0.3, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = erdos_renyi(30, 0.3, seed=1)
        b = erdos_renyi(30, 0.3, seed=2)
        assert a != b

    def test_edge_count_near_expectation(self):
        g = erdos_renyi(100, 0.2, seed=3)
        expected = 0.2 * 100 * 99 / 2
        assert 0.7 * expected < g.num_edges < 1.3 * expected

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 1.5)

    def test_accepts_generator(self):
        rng = np.random.default_rng(0)
        g = erdos_renyi(10, 0.5, seed=rng)
        assert g.num_nodes == 10


class TestGnm:
    def test_exact_edge_count(self):
        g = gnm_random_graph(30, 100, seed=1)
        assert g.num_edges == 100

    def test_zero_edges(self):
        assert gnm_random_graph(10, 0, seed=1).num_edges == 0

    def test_max_edges(self):
        g = gnm_random_graph(8, 28, seed=1)
        assert g == complete_graph(8)

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            gnm_random_graph(5, 11)

    def test_dense_regime_exact(self):
        g = gnm_random_graph(10, 40, seed=2)
        assert g.num_edges == 40


class TestDeterministicFamilies:
    def test_complete_graph(self):
        g = complete_graph(6)
        assert g.num_edges == 15
        assert is_clique(g, set(range(6)))

    def test_empty_graph(self):
        assert empty_graph(7).num_edges == 0

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.num_edges == 5
        assert all(g.degree(v) == 2 for v in g.nodes())

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.degree(0) == 1 and g.degree(4) == 1

    def test_star(self):
        g = star_graph(6)
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_barbell_two_cliques(self):
        g = barbell_graph(5, 3)
        assert is_clique(g, set(range(5)))
        assert is_clique(g, set(range(8, 13)))


class TestPlantedCliques:
    def test_planted_cliques_present(self):
        g = planted_cliques(30, [5, 4], background_p=0.0, seed=1)
        # With no background, edges are exactly the two cliques.
        assert g.num_edges == 10 + 6

    def test_disjoint_overflow_rejected(self):
        with pytest.raises(ValueError, match="do not fit"):
            planted_cliques(8, [5, 5], seed=1)

    def test_overlapping_allowed(self):
        g = planted_cliques(8, [5, 5], seed=1, overlapping=True)
        assert g.num_edges >= 10

    def test_tiny_clique_rejected(self):
        with pytest.raises(ValueError):
            planted_cliques(10, [1], seed=1)

    def test_background_adds_edges(self):
        sparse = planted_cliques(40, [4], background_p=0.0, seed=2)
        dense = planted_cliques(40, [4], background_p=0.3, seed=2)
        assert dense.num_edges > sparse.num_edges


class TestRandomRegular:
    def test_degrees_at_most_d(self):
        g = random_regular(20, 4, seed=1)
        assert max_degree(g) <= 4

    def test_most_degrees_equal_d(self):
        g = random_regular(50, 6, seed=2)
        full = sum(1 for v in g.nodes() if g.degree(v) == 6)
        assert full >= 40

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            random_regular(5, 3)

    def test_degree_too_large_rejected(self):
        with pytest.raises(ValueError):
            random_regular(5, 5)


class TestRandomMultipartite:
    @pytest.mark.parametrize("n, parts", [(31, 3), (40, 4), (7, 2)])
    def test_edges_cross_contiguous_balanced_parts(self, n, parts):
        g = random_multipartite(n, parts, 0.6, seed=3)
        part = [v * parts // n for v in range(n)]
        assert part == sorted(part)
        sizes = np.bincount(part, minlength=parts)
        assert sizes.max() - sizes.min() <= 1
        assert g.num_edges > 0
        assert all(part[u] != part[v] for u, v in g.edges())

    @pytest.mark.parametrize("parts", [2, 3, 4])
    def test_no_clique_larger_than_the_part_count(self, parts):
        g = random_multipartite(36, parts, 0.9, seed=1)
        assert count_cliques(g, parts) > 0
        assert count_cliques(g, parts + 1) == 0

    @pytest.mark.parametrize("n, parts", [(30, 3), (31, 3), (10, 4), (5, 1)])
    def test_q_one_is_complete_multipartite(self, n, parts):
        sizes = np.bincount([v * parts // n for v in range(n)], minlength=parts)
        expected = (n * n - int((sizes**2).sum())) // 2
        assert random_multipartite(n, parts, 1.0, seed=0).num_edges == expected
        assert random_multipartite(n, parts, 0.0, seed=0).num_edges == 0

    def test_one_seed_one_edge_set(self):
        first = random_multipartite(60, 3, 0.5, seed=7)
        assert first.edge_set() == random_multipartite(60, 3, 0.5, seed=7).edge_set()
        assert first.edge_set() != random_multipartite(60, 3, 0.5, seed=8).edge_set()

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            random_multipartite(10, 0, 0.5)
        with pytest.raises(ValueError):
            random_multipartite(10, 3, 1.5)


class TestClusteredGraph:
    def test_shape(self):
        g = clustered_graph(3, 10, seed=1)
        assert g.num_nodes == 30

    def test_blocks_denser_than_cross(self):
        g = clustered_graph(2, 15, intra_p=0.9, inter_edges_per_pair=1, seed=1)
        intra = sum(1 for u, v in g.edges() if (u < 15) == (v < 15))
        inter = g.num_edges - intra
        assert intra > 20 * inter


class TestBoundedArboricity:
    def test_arboricity_bound_holds(self):
        g = bounded_arboricity_graph(50, 3, seed=1)
        # degeneracy <= 2·arboricity − 1
        assert degeneracy(g) <= 2 * 3 - 1

    def test_union_of_one_forest_is_forest(self):
        g = bounded_arboricity_graph(30, 1, seed=2)
        assert degeneracy(g) <= 1

    def test_invalid_arboricity(self):
        with pytest.raises(ValueError):
            bounded_arboricity_graph(10, 0)


class TestPowerLaw:
    def test_runs_and_skews(self):
        g = power_law_graph(100, exponent=2.3, seed=1)
        degrees = sorted((g.degree(v) for v in g.nodes()), reverse=True)
        assert degrees[0] >= degrees[-1]


class TestDensityForCliques:
    def test_expected_cliques_positive(self):
        g = graph_with_density_for_cliques(60, 4, expected_cliques=50, seed=1)
        assert 0 < g.num_edges < 60 * 59 / 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            graph_with_density_for_cliques(60, 4, expected_cliques=0)
