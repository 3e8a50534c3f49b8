"""Ablations over the design choices docs/architecture.md describes.

A1 — routing slack: the Õ(1) factor of Theorem 2.4 (we default to
     log₂ n) vs "pure" slack-1 charging.  Separates the polylog overhead
     from the combinatorial load structure.
A2 — conductance target φ: lower φ accepts bigger/looser clusters
     (fewer, larger; smaller Er) while higher φ splits more aggressively
     (more Er, smaller clusters).  The decomposition's |Er| ≤ |E|/6 must
     hold across the sweep.
A3 — heavy threshold: raising it turns heavy nodes light, shifting cost
     from the heavy-push chunks to the light-pull lists; correctness is
     threshold-independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.verification import verify_listing
from repro.congest.ledger import RoundLedger
from repro.congest.routing import CostModel
from repro.core.arb_list import ArbListState, arb_list
from repro.core.config import ExecutionConfig
from repro.core.listing import list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.decomposition import expander_decomposition, validate_decomposition
from repro.graphs.generators import clustered_graph, erdos_renyi
from repro.graphs.orientation import degeneracy_orientation


def test_a1_routing_slack(benchmark):
    g = erdos_renyi(96, 0.5, seed=11)
    results = {}

    def run():
        for label, slack in (("polylog", None), ("pure", 1)):
            params = AlgorithmParameters(
                p=4,
                variant="generic",
                stop_scale=0.5,
                execution=ExecutionConfig(cost_model=CostModel(routing_slack=slack)),
            )
            result = list_cliques_congest(g, 4, params=params, seed=11)
            verify_listing(g, result).raise_if_failed()
            results[label] = result.rounds
        return results

    benchmark.pedantic(run, iterations=1, rounds=1)
    benchmark.extra_info.update({k: round(v, 1) for k, v in results.items()})
    # The slack multiplies only the routed phases; totals must order and
    # the ratio must stay below the full log factor (decomposition and
    # broadcast charges are slack-independent).
    assert results["pure"] < results["polylog"]
    import math

    assert results["polylog"] / results["pure"] <= math.log2(96) + 1


def test_a2_conductance_target(benchmark):
    g = clustered_graph(4, 32, intra_p=0.8, inter_edges_per_pair=4, seed=12)
    rows = {}

    def run():
        for phi in (0.01, 0.05, 0.15):
            decomposition = expander_decomposition(g, threshold=6, phi=phi)
            validate_decomposition(g, decomposition)
            stats = decomposition.stats()
            rows[phi] = {
                "clusters": stats["num_clusters"],
                "er_fraction": round(stats["er_fraction"], 4),
            }
        return rows

    benchmark.pedantic(run, iterations=1, rounds=1)
    benchmark.extra_info["rows"] = {str(k): v for k, v in rows.items()}
    # Higher phi must never produce fewer clusters on this workload.
    clusters = [rows[phi]["clusters"] for phi in (0.01, 0.05, 0.15)]
    assert clusters == sorted(clusters)
    for row in rows.values():
        assert row["er_fraction"] <= 1 / 6


def test_a3_heavy_threshold_shift(benchmark):
    g = clustered_graph(4, 32, intra_p=0.85, inter_edges_per_pair=10, seed=13)
    orientation = degeneracy_orientation(g)
    rows = {}

    def run():
        for label, scale in (("paper", 1.0), ("all_light", 1000.0), ("all_heavy", 1e-6)):
            state = ArbListState(
                n=g.num_nodes,
                er_edges=g.edge_set(),
                orientation=orientation,
                arboricity=max(1, orientation.max_out_degree),
                threshold=6,
            )
            params = AlgorithmParameters(
                p=4, variant="generic", heavy_scale=scale, phi=0.05
            )
            ledger = RoundLedger()
            arb_list(state, params, np.random.default_rng(0), ledger, "arb")
            rows[label] = {
                "gather_heavy": round(ledger.rounds_by_prefix("arb/gather_heavy"), 1),
                "gather_light": round(ledger.rounds_by_prefix("arb/gather_light"), 1),
            }
        return rows

    benchmark.pedantic(run, iterations=1, rounds=1)
    benchmark.extra_info["rows"] = rows
    # All-light must pay nothing on the heavy push.  The all-heavy corner
    # still leaves g_{v,C} = 1 boundary nodes light (the threshold is a
    # strict 'greater than' with floor 1), so the light pull can only
    # shrink, while the heavy push must engage.
    assert rows["all_light"]["gather_heavy"] == 0
    assert rows["all_heavy"]["gather_heavy"] > 0
    assert rows["all_heavy"]["gather_light"] <= rows["paper"]["gather_light"]
