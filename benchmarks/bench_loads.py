"""E8 (§2.4.3): per-node load bounds of the in-cluster machinery.

Regenerates the three measured-load inequalities of the analysis:
- reshuffle ownership: ≤ ⌈n/k⌉ · A edges per cluster node;
- sparsity-aware receive load: O(p² · m_known / k^{2/p}) words;
- gather: each node learns Õ(n^{3/4+d}) edges from outside (Remark 2.10),
  here checked against the measured per-node maxima recorded in the
  ledger stats.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.congest.ledger import RoundLedger
from repro.core.arb_list import ArbListState, arb_list
from repro.core.params import AlgorithmParameters
from repro.graphs.generators import erdos_renyi
from repro.graphs.orientation import degeneracy_orientation


def run_one_arb(n=96, density=0.45, p=4, seed=6):
    g = erdos_renyi(n, density, seed=seed)
    orientation = degeneracy_orientation(g)
    state = ArbListState(
        n=n,
        er_edges=g.edge_set(),
        orientation=orientation,
        arboricity=max(1, orientation.max_out_degree),
        threshold=7,
    )
    params = AlgorithmParameters(p=p)
    ledger = RoundLedger()
    outcome = arb_list(state, params, np.random.default_rng(0), ledger, "arb")
    return g, state, ledger, outcome


def test_reshuffle_ownership_balance(benchmark):
    def run():
        return run_one_arb()

    g, state, ledger, outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    reshuffle_phases = [p_ for p_ in ledger.phases() if "reshuffle" in p_.name]
    assert reshuffle_phases
    worst_words = max(p_.stats.get("max_recv_words", 0) for p_ in reshuffle_phases)
    # Ownership bound: each member owns ≤ ⌈n/k⌉ sources × A out-edges,
    # at 2 words per edge.  k ≥ threshold here; use the loosest k seen.
    n = g.num_nodes
    bound = 2 * math.ceil(n / state.threshold) * state.arboricity
    benchmark.extra_info.update(
        {"worst_reshuffle_recv_words": worst_words, "ownership_bound_words": bound}
    )
    assert worst_words <= bound


def test_sparsity_receive_load(benchmark):
    def run():
        return run_one_arb()

    g, state, ledger, outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    learn_phases = [p_ for p_ in ledger.phases() if "learn_edges" in p_.name]
    assert learn_phases
    p = 4
    for phase in learn_phases:
        max_recv = phase.stats.get("max_recv_words", 0)
        known = phase.stats.get("known_edges", 0)
        cluster_k = phase.stats.get("cluster_size", state.threshold)
        if not known:
            continue
        bound = 8 * p * p * 2 * known / (cluster_k ** (2 / p))
        benchmark.extra_info.setdefault("rows", []).append(
            {
                "max_recv_words": max_recv,
                "known_edges": known,
                "bound": round(bound, 1),
            }
        )
        assert max_recv <= bound


def test_gather_remark_2_10(benchmark):
    """Remark 2.10: each cluster node learns Õ(n^{3/4+d}) outside edges."""

    def run():
        return run_one_arb()

    g, state, ledger, outcome = benchmark.pedantic(run, iterations=1, rounds=1)
    n = g.num_nodes
    d = math.log(max(2, state.arboricity)) / math.log(n)
    budget = (n ** (0.75 + d)) * math.log2(n)
    worst = ledger.max_stat("received_max_per_node") or 0
    benchmark.extra_info.update(
        {"worst_gathered_edges": worst, "remark_2_10_budget": round(budget, 1)}
    )
    assert worst <= budget
