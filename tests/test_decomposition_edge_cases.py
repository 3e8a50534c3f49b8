"""Edge-case and robustness tests for the decomposition substrate."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.decomposition import expander_decomposition, validate_decomposition
from repro.decomposition.expander import resolved_phi
from repro.decomposition.mixing import spectral_gap
from repro.decomposition.spectral import (
    adjacency_matrix,
    lambda2_of_component,
    normalized_laplacian_second_eigenpair,
)
from repro.decomposition.sweep_cut import sweep_cut
from repro.graphs.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    gnm_random_graph,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph


class TestSpectralHelpers:
    def test_adjacency_matrix_symmetric(self):
        g = erdos_renyi(20, 0.3, seed=1)
        adj = adjacency_matrix(g, list(range(20)))
        assert (adj != adj.T).nnz == 0

    def test_adjacency_restricts_to_subset(self):
        g = complete_graph(6)
        adj = adjacency_matrix(g, [0, 1, 2])
        assert adj.sum() == 6  # K3: 3 edges × 2 directions

    def test_lambda2_none_for_tiny(self):
        g = Graph(2, [(0, 1)])
        assert lambda2_of_component(g, [0, 1]) is None

    def test_lambda2_of_clique_large(self):
        g = complete_graph(10)
        lam = lambda2_of_component(g, list(range(10)))
        assert lam is not None and lam > 0.5

    def test_lambda2_of_path_small(self):
        g = path_graph(30)
        lam = lambda2_of_component(g, list(range(30)))
        assert lam is not None and lam < 0.1

    def test_eigenpair_on_larger_component_uses_sparse_path(self):
        # > _DENSE_CUTOFF nodes exercises the ARPACK branch + fallbacks.
        g = erdos_renyi(100, 0.15, seed=2)
        comp = max(g.connected_components(), key=len)
        adj = adjacency_matrix(g, sorted(comp))
        value, vector = normalized_laplacian_second_eigenpair(adj)
        assert value >= -1e-9
        assert vector.shape[0] == len(comp)


def _raising(error):
    def solver(*args, **kwargs):
        raise error

    return solver


class TestArpackFallback:
    """Only ARPACK's own failures switch the spectral solvers to their
    dense fallback; any other error is a bug and must surface."""

    def _component(self):
        # > _DENSE_CUTOFF nodes: both solvers take their ARPACK path.
        g = erdos_renyi(100, 0.15, seed=2)
        return g, sorted(max(g.connected_components(), key=len))

    def test_other_errors_propagate(self, monkeypatch):
        g, comp = self._component()
        monkeypatch.setattr(spla, "eigsh", _raising(ValueError("bad matrix")))
        monkeypatch.setattr(spla, "eigs", _raising(ValueError("bad matrix")))
        with pytest.raises(ValueError, match="bad matrix"):
            normalized_laplacian_second_eigenpair(adjacency_matrix(g, comp))
        with pytest.raises(ValueError, match="bad matrix"):
            spectral_gap(g, comp)

    def test_no_convergence_falls_back_to_dense(self, monkeypatch):
        g, comp = self._component()
        adj = adjacency_matrix(g, comp)
        dense = adj.toarray()
        degrees = dense.sum(axis=1)
        scale = 1.0 / np.sqrt(degrees)
        laplacian = np.eye(len(comp)) - scale[:, None] * dense * scale[None, :]
        lambda2 = np.linalg.eigvalsh(laplacian)[1]
        walk = 0.5 * (np.eye(len(comp)) + dense / degrees[:, None])
        walk_lambda2 = np.sort(np.abs(np.linalg.eigvals(walk)))[::-1][1]

        stuck = _raising(spla.ArpackNoConvergence("no convergence", [], []))
        monkeypatch.setattr(spla, "eigsh", stuck)
        monkeypatch.setattr(spla, "eigs", stuck)
        value, vector = normalized_laplacian_second_eigenpair(adj)
        assert value == pytest.approx(lambda2)
        assert vector.shape[0] == len(comp)
        assert spectral_gap(g, comp) == pytest.approx(1.0 - walk_lambda2)


class TestSweepCutEdgeCases:
    def test_star_cut(self):
        g = star_graph(10)
        result = sweep_cut(g, list(range(10)))
        # Stars have conductance ~1 at the minimum sweep; any answer must
        # be structurally valid.
        if result is not None:
            assert 0 < len(result.side) < 10

    def test_disconnected_members_rejected_by_degree_check(self):
        g = Graph(6, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            sweep_cut(g, [0, 1, 2, 3, 4, 5])  # isolated nodes 4, 5

    def test_two_triangles_bridge(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        result = sweep_cut(g, list(range(6)))
        assert result is not None
        assert result.conductance <= 1 / 6 + 1e-9
        assert result.side in ({0, 1, 2}, {3, 4, 5})


class TestDecompositionRobustness:
    def test_retry_shrinks_phi_when_er_large(self):
        # A graph of many tiny bridged triangles forces lots of cut edges
        # at a too-ambitious phi; the retry loop must still return a valid
        # object.
        g = Graph(30)
        for b in range(0, 30, 3):
            g.add_edge(b, b + 1)
            g.add_edge(b + 1, b + 2)
            g.add_edge(b, b + 2)
        for b in range(0, 27, 3):
            g.add_edge(b + 2, b + 3)
        dec = expander_decomposition(g, threshold=2, phi=0.9)
        validate_decomposition(g, dec)

    def test_threshold_one_keeps_everything_in_components(self):
        g = erdos_renyi(40, 0.3, seed=3)
        dec = expander_decomposition(g, threshold=1)
        validate_decomposition(g, dec)

    def test_large_threshold_peels_everything(self):
        g = erdos_renyi(40, 0.2, seed=4)
        dec = expander_decomposition(g, threshold=1000)
        assert not dec.clusters
        assert set(map(tuple, dec.es_edges.tolist())) == g.edge_set()

    def test_two_cliques_zero_bridge(self):
        g = Graph(16)
        for base in (0, 8):
            for u in range(base, base + 8):
                for v in range(u + 1, base + 8):
                    g.add_edge(u, v)
        dec = expander_decomposition(g, threshold=4)
        validate_decomposition(g, dec)
        assert len(dec.clusters) == 2

    def test_barbell_er_respects_budget(self):
        g = barbell_graph(16, 1)
        dec = expander_decomposition(g, threshold=4)
        validate_decomposition(g, dec)
        assert len(dec.er_edges) <= g.num_edges / 6

    def test_resolved_phi_default(self):
        assert resolved_phi(256) == pytest.approx(1 / (2 * 64))

    def test_resolved_phi_explicit(self):
        assert resolved_phi(10**6, 0.25) == 0.25

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_always_valid(self, seed):
        g = gnm_random_graph(60, 400, seed=seed)
        dec = expander_decomposition(g, threshold=5)
        validate_decomposition(g, dec)
