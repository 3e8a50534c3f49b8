"""Algorithm LIST (Theorem 2.8): halve the arboricity, listing as you go.

LIST repeatedly invokes ARB-LIST on the same node set with a geometrically
shrinking Êr: starting from (Es, Er) = (∅, E), each invocation guarantees
|Êr| ≤ |Er|/4 — 1/6 from the expander decomposition plus at most 1/25 in
demoted bad edges — so after O(log n) invocations Êr is empty and
E = Ẽm ∪ Ẽs with arboricity(Ẽs) ≤ (#iterations)·n^δ ≤ A/2.  Every Kp
with an edge in Ẽm has been listed.

A degenerate-progress fallback keeps the implementation total: if an
invocation neither lists goal edges nor shrinks Êr (possible only at tiny
scales where every component peels away), the remaining Êr obligations
are discharged by a direct neighborhood broadcast, charged at its true
CONGEST cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set, Tuple

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.core.arb_list import ArbListState, arb_list
from repro.core.params import AlgorithmParameters
from repro.core.result import attribution_arrays, join_attributions
from repro.graphs.cliques import cliques_touching_edges, enumerate_cliques
from repro.graphs.graph import Graph
from repro.graphs.keys import key_pairs
from repro.graphs.orientation import Orientation
from repro.graphs.table import materialize_rows

Clique = FrozenSet[int]


@dataclass
class ListOutcome:
    """Result of one LIST call (Theorem 2.8).

    ``es_orientation`` is the Ẽs the caller recurses on, with its
    witness (``es_keys`` reads its sorted canonical keys ``u·n + v``);
    every Kp of the input graph with an edge outside Ẽs is a row of the
    ``(c, p)`` int64 ``table``, output by node ``owners[i]`` for row
    ``i``.
    """

    owners: np.ndarray
    table: np.ndarray
    es_orientation: Orientation
    iterations: int
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def es_keys(self) -> np.ndarray:
        return self.es_orientation.canonical_keys()

    @property
    def cliques(self) -> Set[Clique]:
        return materialize_rows(self.table)


def list_once(
    graph: Graph,
    orientation: Orientation,
    arboricity: int,
    params: AlgorithmParameters,
    rng: np.random.Generator,
    ledger: RoundLedger,
    phase_prefix: str = "list",
) -> ListOutcome:
    """Run Algorithm LIST on ``graph`` with witness ``orientation``.

    Parameters
    ----------
    graph:
        Current graph G = (V, E).
    orientation:
        Witness orientation of E with max out-degree ≤ ``arboricity``.
    arboricity:
        The A = n^d of Theorem 2.8.
    """
    n = graph.num_nodes
    threshold = params.peel_threshold(n, arboricity)
    state = ArbListState(
        n=n,
        er_edges=graph.to_csr().edge_table(),
        orientation=orientation,
        arboricity=arboricity,
        threshold=threshold,
    )
    chunks = []  # (owners, table) pairs
    budget = params.arb_iteration_budget(n)
    iterations = 0
    er_trace = [state.er_keys.size]

    while state.er_keys.size and iterations < budget:
        er_before = state.er_keys.size
        outcome = arb_list(
            state, params, rng, ledger, phase_prefix=f"{phase_prefix}/arb[{iterations}]"
        )
        chunks.append((outcome.owners, outcome.table))
        iterations += 1
        er_trace.append(state.er_keys.size)
        progressed = state.er_keys.size < er_before or len(outcome.goal_edges) > 0
        if not progressed:
            break

    if state.er_keys.size:
        chunks.append(
            _fallback_broadcast(state, params, ledger, f"{phase_prefix}/fallback")
        )

    owners, table = join_attributions(chunks, params.p)
    return ListOutcome(
        owners=owners,
        table=table,
        es_orientation=state.es_orientation,
        iterations=iterations,
        stats={
            "iterations": float(iterations),
            "threshold": float(threshold),
            "er_trace_first": float(er_trace[0]),
            "er_trace_last": float(er_trace[-1]),
            "es_out_degree": float(state.es_orientation.max_out_degree),
        },
    )


def _fallback_broadcast(
    state: ArbListState,
    params: AlgorithmParameters,
    ledger: RoundLedger,
    phase: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Discharge leftover Êr obligations by direct neighborhood broadcast.

    Every node broadcasts its remaining out-edges to all neighbors; each
    node then knows every edge of every Kp it belongs to (each such edge
    is oriented away from one of its two endpoints, both neighbors of any
    clique member), so the minimum member can list it.  Cost: 2·(max
    out-degree) words per link, the exact pipelined CONGEST cost.
    Returns the listed cliques as an ``(owners, table)`` pair.
    """
    current = state.current_graph()
    rounds = 2.0 * max(1, state.orientation.max_out_degree)
    ledger.charge(phase, rounds, er_edges=state.er_keys.size)
    er_pairs = key_pairs(state.er_keys, state.n).tolist()
    remaining_cliques = cliques_touching_edges(
        enumerate_cliques(current, params.p), er_pairs
    )
    listed: Dict[int, Set[Clique]] = {}
    for clique in remaining_cliques:
        listed.setdefault(min(clique), set()).add(clique)
    # All Êr obligations fulfilled; those edges retire from the graph.
    state.er_keys = state.er_keys[:0]
    state.orientation = state.orientation.restricted_to(state.es_keys)
    return attribution_arrays(listed, params.p)
