"""E6 (Theorem 2.9 / §2.4.1): ARB-LIST contraction and bad-edge fraction.

Two inequalities to regenerate:
- |Êr| ≤ |Er|/4 per ARB-LIST invocation (decomposition 1/6 + bad ≤ 1/25);
- at the paper's thresholds, the bad-edge fraction of cluster edges is
  ≤ 1/25 (at laptop n the threshold 100·√n·log n bites never — we also
  report a force-scaled run that actually demotes edges).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest.ledger import RoundLedger
from repro.core.arb_list import ArbListState, arb_list
from repro.core.bad_edges import bad_edge_fraction_bound
from repro.core.params import AlgorithmParameters
from repro.graphs.generators import clustered_graph, erdos_renyi
from repro.graphs.keys import contains_sorted, edge_keys
from repro.graphs.orientation import degeneracy_orientation


def fresh_state(graph, threshold):
    orientation = degeneracy_orientation(graph)
    return ArbListState(
        n=graph.num_nodes,
        er_edges=graph.edge_set(),
        orientation=orientation,
        arboricity=max(1, orientation.max_out_degree),
        threshold=threshold,
    )


def test_er_contraction_per_invocation(benchmark):
    g = erdos_renyi(96, 0.4, seed=3)
    params = AlgorithmParameters(p=4)
    trace = []

    def run():
        state = fresh_state(g, threshold=7)
        for _ in range(4):
            if not state.er_keys.size:
                break
            before = state.er_keys.size
            arb_list(state, params, np.random.default_rng(0), RoundLedger())
            trace.append((before, state.er_keys.size))
        return trace

    benchmark.pedantic(run, iterations=1, rounds=1)
    benchmark.extra_info["er_trace"] = trace
    for before, after in trace:
        assert after <= before / 4, f"Êr contraction violated: {before} -> {after}"


def test_bad_edge_fraction_at_paper_threshold(benchmark):
    g = erdos_renyi(96, 0.45, seed=4)
    params = AlgorithmParameters(p=4)  # paper bad threshold: no demotion at this n

    def run():
        state = fresh_state(g, threshold=7)
        outcome = arb_list(state, params, np.random.default_rng(0), RoundLedger())
        return outcome

    outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    cluster_edges = len(outcome.goal_edges) + len(outcome.bad_edges)
    fraction = len(outcome.bad_edges) / max(1, cluster_edges)
    benchmark.extra_info.update(
        {
            "bad_edges": len(outcome.bad_edges),
            "cluster_edges": cluster_edges,
            "fraction": round(fraction, 4),
            "paper_bound": round(bad_edge_fraction_bound(), 4),
        }
    )
    assert fraction <= bad_edge_fraction_bound()


def test_bad_edges_forced_are_deferred_not_lost(benchmark):
    """Scale the bad threshold down until demotion actually happens, then
    check the demoted edges land in Êr (deferred, not dropped).  The
    caveman blocks split into four clusters (phi = 0.05), each block's
    nodes light outside neighbours of the others; a one-cluster ER draw
    has no outside neighbours and demotes nothing."""
    g = clustered_graph(4, 24, intra_p=0.8, inter_edges_per_pair=6, seed=3)
    params = AlgorithmParameters(p=4, bad_scale=1e-6, heavy_scale=100.0, phi=0.05)

    def run():
        state = fresh_state(g, threshold=7)
        outcome = arb_list(state, params, np.random.default_rng(0), RoundLedger())
        return state, outcome

    state, outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    benchmark.extra_info["forced_bad_edges"] = len(outcome.bad_edges)
    assert len(outcome.bad_edges) > 0
    bad_keys = edge_keys(outcome.bad_edges, state.n)
    assert contains_sorted(state.er_keys, bad_keys).all()
