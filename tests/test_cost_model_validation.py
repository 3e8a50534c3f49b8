"""Cross-validation: the analytic round charges match faithful executions.

The cost model of docs/architecture.md §2 rests on the charged primitives
being honest: a phase charged R rounds must execute in Θ(R) rounds on the
message-level engine.
These tests run both on the same inputs and compare.
"""

import math

import pytest

from repro.congest.programs import (
    run_cluster_announce,
    run_out_edge_broadcast,
)
from repro.core.heavy_light import classify_outside_neighbors
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.generators import (
    clustered_graph,
    complete_graph,
    erdos_renyi,
    path_graph,
)
from repro.graphs.orientation import degeneracy_orientation


class TestOutEdgeBroadcastValidation:
    """The final-broadcast phase is charged 2·max-out-degree rounds."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_faithful_rounds_match_charge(self, seed):
        g = erdos_renyi(24, 0.3, seed=seed)
        orientation = degeneracy_orientation(g)
        charge = 2 * max(1, orientation.max_out_degree)
        _knowledge, rounds = run_out_edge_broadcast(g, orientation)
        # The faithful execution interleaves the count header with the
        # edge stream; it must land within a small additive band of the
        # analytic charge (extra: 1 header word + final drain round).
        assert rounds <= charge + 3
        assert rounds >= max(1, charge - 2)

    def test_knowledge_suffices_for_listing(self):
        g = erdos_renyi(20, 0.4, seed=4)
        orientation = degeneracy_orientation(g)
        knowledge, _rounds = run_out_edge_broadcast(g, orientation)
        # Every triangle through node v is reconstructible from
        # knowledge[v] — the correctness fact behind the final stage of
        # Theorem 1.1.
        for clique in enumerate_cliques(g, 3):
            for v in clique:
                members = sorted(clique)
                edges = {
                    (members[i], members[j])
                    for i in range(3)
                    for j in range(i + 1, 3)
                }
                assert edges <= knowledge[v], f"node {v} missing edges of {members}"

    def test_path_graph_fast(self):
        g = path_graph(12)
        orientation = degeneracy_orientation(g)
        _knowledge, rounds = run_out_edge_broadcast(g, orientation)
        assert rounds <= 6  # out-degree 1 → ~2-4 rounds


class TestClusterAnnounceValidation:
    """§2.4.1 classification is charged 2 rounds; the faithful protocol
    must agree on both cost and output."""

    def test_rounds_are_constant(self):
        g = clustered_graph(2, 12, intra_p=0.9, inter_edges_per_pair=4, seed=5)
        cluster_of = {v: 0 for v in range(12)}
        _degrees, rounds = run_cluster_announce(g, cluster_of, heavy_threshold=2)
        assert rounds <= 3

    def test_degrees_match_analytic_classification(self):
        g = erdos_renyi(30, 0.35, seed=6)
        members = set(range(12))
        cluster_of = {v: 7 for v in members}
        degrees, _rounds = run_cluster_announce(g, cluster_of, heavy_threshold=3)
        split = classify_outside_neighbors(g, members, heavy_threshold=3)
        for v, expected in split.cluster_degree.items():
            assert degrees[v].get(7, 0) == expected

    def test_heavy_flags_match(self):
        from repro.congest.programs import ClusterAnnounce
        from repro.congest.network import Network

        g = erdos_renyi(30, 0.35, seed=7)
        members = set(range(12))
        cluster_of = {v: 0 for v in members}
        programs = {v: ClusterAnnounce(cluster_of, 3) for v in g.nodes()}
        Network(g, programs).run()
        split = classify_outside_neighbors(g, members, heavy_threshold=3)
        for v in split.heavy:
            assert programs[v].is_heavy[0] is True
        for v in split.light:
            assert programs[v].is_heavy[0] is False


class TestBandwidthScalingValidation:
    """Doubling the bandwidth must roughly halve the faithful rounds of a
    bandwidth-bound phase — the linearity the ⌈load/capacity⌉ charges
    assume."""

    def test_broadcast_scales_with_bandwidth(self):
        g = complete_graph(10)
        orientation = degeneracy_orientation(g)
        _k1, rounds_b1 = run_out_edge_broadcast(g, orientation, bandwidth=1)
        _k2, rounds_b4 = run_out_edge_broadcast(g, orientation, bandwidth=4)
        assert rounds_b4 < rounds_b1
        assert rounds_b4 >= rounds_b1 / 8
