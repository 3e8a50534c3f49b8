"""Integration tests: end-to-end CONGEST Kp listing (Theorems 1.1 / 1.2)."""

from dataclasses import replace

import pytest

from repro import list_cliques
from repro.analysis.verification import verify_listing, verify_per_node_consistency
from repro.core import list_iteration
from repro.core.arb_list import arb_list
from repro.core.listing import default_parameters, list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.core.result import ListingResult
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.generators import (
    clustered_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    planted_cliques,
)
from repro.graphs.graph import Graph
from repro.graphs.orientation import degeneracy_orientation
from repro.workloads import create_workload


class TestCorrectnessAcrossWorkloads:
    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_planted_cliques(self, p, planted):
        result = list_cliques(planted, p=p, seed=1)
        verify_listing(planted, result).raise_if_failed()
        assert verify_per_node_consistency(result)

    @pytest.mark.parametrize("p", [4, 5])
    def test_dense_er_engages_pipeline(self, p):
        g = erdos_renyi(90, 0.5, seed=2)
        result = list_cliques(g, p=p, variant="generic", seed=2)
        verify_listing(g, result).raise_if_failed()
        assert result.stats["outer_iterations"] >= 1

    def test_caveman_multi_cluster(self, caveman):
        result = list_cliques(caveman, p=4, variant="generic", seed=3)
        verify_listing(caveman, result).raise_if_failed()

    def test_complete_graph(self):
        g = complete_graph(12)
        result = list_cliques(g, p=4, seed=4)
        verify_listing(g, result).raise_if_failed()
        assert len(result.cliques) == 495  # C(12,4)

    def test_triangle_free(self):
        g = cycle_graph(20)
        result = list_cliques(g, p=3, seed=5)
        verify_listing(g, result).raise_if_failed()
        assert not result.cliques

    def test_empty_graph(self):
        result = list_cliques(Graph(10), p=4)
        assert not result.cliques and result.rounds == 0

    def test_p_exceeds_n(self):
        result = list_cliques(complete_graph(3), p=5)
        assert not result.cliques

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        result = list_cliques(g, p=3)
        assert not result.cliques


class TestVariants:
    def test_default_variant_for_p4_is_k4(self):
        params = default_parameters(4)
        assert params.variant == "k4"

    def test_default_variant_for_p5_is_generic(self):
        assert default_parameters(5).variant == "generic"

    def test_k4_and_generic_agree_on_output(self):
        g = erdos_renyi(80, 0.45, seed=6)
        generic = list_cliques(g, p=4, variant="generic", seed=6)
        k4 = list_cliques(g, p=4, variant="k4", seed=6)
        assert generic.cliques == k4.cliques

    def test_params_p_mismatch_rejected(self):
        g = complete_graph(5)
        with pytest.raises(ValueError, match="does not match"):
            list_cliques_congest(g, 4, params=AlgorithmParameters(p=5))

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            list_cliques(complete_graph(4), p=3, model="quantum")


class TestDeterminism:
    def test_same_seed_same_rounds(self):
        g = erdos_renyi(70, 0.45, seed=7)
        a = list_cliques(g, p=4, seed=42)
        b = list_cliques(g, p=4, seed=42)
        assert a.rounds == b.rounds
        assert a.cliques == b.cliques

    def test_different_seed_same_cliques(self):
        g = erdos_renyi(70, 0.45, seed=8)
        a = list_cliques(g, p=4, seed=1)
        b = list_cliques(g, p=4, seed=2)
        assert a.cliques == b.cliques  # correctness is seed-independent


class TestLedgerStructure:
    def test_phases_cover_paper_structure(self):
        g = erdos_renyi(90, 0.5, seed=9)
        result = list_cliques(g, p=4, variant="generic", seed=9)
        names = [p.name for p in result.ledger.phases()]
        assert names[0] == "orient"
        assert names[-1] == "final_broadcast"
        if result.stats["outer_iterations"] >= 1:
            assert any("expander_decomposition" in n for n in names)
            assert any("learn_edges" in n for n in names)

    def test_rounds_positive_for_nonempty(self):
        g = erdos_renyi(40, 0.3, seed=10)
        result = list_cliques(g, p=4)
        assert result.rounds > 0

    def test_sparse_graph_short_circuit(self):
        # Low-arboricity inputs skip LIST entirely: only orient + broadcast.
        g = cycle_graph(100)
        result = list_cliques(g, p=4)
        assert result.stats["outer_iterations"] == 0
        groups = result.ledger.grouped()
        assert set(groups.keys()) == {"orient", "final_broadcast"}

    def test_final_broadcast_cost_tracks_arboricity(self):
        g = cycle_graph(100)  # degeneracy 2
        result = list_cliques(g, p=4)
        final = [p for p in result.ledger.phases() if p.name == "final_broadcast"][0]
        assert final.rounds == 4.0  # 2 · out-degree(2)

    @pytest.mark.parametrize("family", ["er", "caveman", "planted", "zipfian"])
    def test_initial_arboricity_is_the_orient_out_degree(self, family):
        g = create_workload(family).instance(64, seed=3)
        result = list_cliques(g, p=4)
        orient = result.ledger.phases()[0]
        assert orient.name == "orient"
        assert result.stats["initial_arboricity"] == max(1, orient.stats["out_degree"])
        assert result.stats["initial_arboricity"] == max(
            1, degeneracy_orientation(g).max_out_degree
        )


class TestBadNodePath:
    def test_forced_bad_edges_still_correct(self, monkeypatch):
        """Scaling the bad threshold down exercises edge demotion without
        breaking completeness (demoted edges are handled later).  The
        caveman blocks split into separate clusters (phi = 0.05) and a
        low stop scale keeps the outer loop running, so ARB-LIST really
        demotes edges."""
        demoted = []

        def counting_arb_list(*args, **kwargs):
            outcome = arb_list(*args, **kwargs)
            demoted.append(len(outcome.bad_edges))
            return outcome

        monkeypatch.setattr(list_iteration, "arb_list", counting_arb_list)
        g = clustered_graph(4, 24, intra_p=0.8, inter_edges_per_pair=6, seed=3)
        params = AlgorithmParameters(
            p=4, variant="generic", bad_scale=1e-6, phi=0.05, stop_scale=0.3
        )
        result = list_cliques_congest(g, 4, params=params, seed=11)
        assert sum(demoted) > 0
        verify_listing(g, result).raise_if_failed()

    def test_forced_all_light_still_correct(self):
        """A huge heavy threshold makes every outside node light."""
        g = erdos_renyi(70, 0.5, seed=12)
        params = AlgorithmParameters(p=4, variant="generic", heavy_scale=1000.0)
        result = list_cliques_congest(g, 4, params=params, seed=12)
        verify_listing(g, result).raise_if_failed()

    def test_forced_all_heavy_still_correct(self):
        """A tiny heavy threshold makes every outside node heavy."""
        g = erdos_renyi(70, 0.5, seed=13)
        params = AlgorithmParameters(p=4, variant="generic", heavy_scale=1e-9)
        result = list_cliques_congest(g, 4, params=params, seed=13)
        verify_listing(g, result).raise_if_failed()


class TestColumnarHandOff:
    @pytest.mark.parametrize("p", [3, 4])
    def test_pipeline_never_attributes_per_clique(self, monkeypatch, p):
        """The cluster pipeline hands ``(owners, table)`` arrays up to one
        ``attribute_table`` call per outer iteration: no clique is
        recorded one at a time on the batch plane."""

        def refuse(self, node, clique):
            raise AssertionError(f"per-clique attribute({node}, {sorted(clique)})")

        monkeypatch.setattr(ListingResult, "attribute", refuse)
        g = create_workload("er").instance(40, seed=0)
        params = replace(default_parameters(p), stop_scale=0.1)
        result = list_cliques_congest(g, p, params=params, seed=0)
        assert result.stats["outer_iterations"] >= 1
        verify_listing(g, result).raise_if_failed()
