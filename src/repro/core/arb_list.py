"""Algorithm ARB-LIST (Theorem 2.9).

One invocation:

1. run the δ-expander decomposition on G' = (V, Er), producing
   E'm / E's / E'r with |E'r| ≤ |Er|/6;
2. fold E's into Ês (arboricity witness grows by one peel threshold);
3. process every cluster of E'm in parallel (heavy/light, bad edges,
   gather, reshuffle, sparsity-aware listing) — per-phase round charges
   are the maxima over clusters;
4. goal edges Êm = E'm − bad edges are *listed* (every Kp touching them
   is output) and leave the graph; bad edges and E'r form Êr for the next
   iteration.

Postconditions (checked by tests): arboricity(Ês) grows by ≤ threshold
per invocation, |Êr| ≤ |Er|/6 + (bad edges) ≤ |Er|/4, and every Kp of the
current graph with an edge in Êm appears in the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.core.cluster_task import process_cluster
from repro.core.k4 import sequential_light_phase
from repro.core.params import AlgorithmParameters, K4_VARIANT
from repro.core.result import attribution_arrays, join_attributions
from repro.decomposition.expander import expander_decomposition
from repro.graphs.graph import Graph
from repro.graphs.keys import EdgesLike, edge_keys, key_pairs, unique_sorted
from repro.graphs.orientation import Orientation
from repro.graphs.table import materialize_rows

Clique = FrozenSet[int]


class ArbListState:
    """The evolving edge partition threaded through ARB-LIST iterations.

    Ês is kept only as its arboricity witness, Êr as a sorted canonical
    key array (``u·n + v`` with ``u < v``, :mod:`repro.graphs.keys`);
    the constructor takes any edge collection for Êr.

    Attributes
    ----------
    n:
        Node count (constant).
    es_orientation:
        The accumulated Ês (empty at first) as its arboricity witness;
        ``es_keys`` reads its canonical keys.
    er_keys:
        The remaining Êr (the next invocation decomposes exactly this).
    orientation:
        Global witness orientation of *all* current edges (Ês ∪ Êr),
        max out-degree ≤ ``arboricity``.
    arboricity:
        The witness A = n^d of the current graph.
    threshold:
        The peel threshold n^δ of this LIST call.
    """

    def __init__(
        self,
        n: int,
        er_edges: EdgesLike,
        orientation: Orientation,
        arboricity: int,
        threshold: int,
    ) -> None:
        self.n = n
        self.es_orientation = Orientation(n)
        self.er_keys = edge_keys(er_edges, n)
        self.orientation = orientation
        self.arboricity = arboricity
        self.threshold = threshold

    @property
    def es_keys(self) -> np.ndarray:
        return self.es_orientation.canonical_keys()

    def current_keys(self) -> np.ndarray:
        return unique_sorted(np.concatenate([self.es_keys, self.er_keys]))

    def current_graph(self) -> Graph:
        return Graph.from_edge_array(self.n, key_pairs(self.current_keys(), self.n))


@dataclass
class ArbListOutcome:
    """Result of one ARB-LIST invocation.

    Row ``i`` of the ``(c, p)`` int64 ``table`` is a clique output by
    node ``owners[i]``: every cluster's listing, then the K4 light phase.
    ``goal_edges`` (listed, now out of the graph) and ``bad_edges``
    (demoted to Êr) are ``(m, 2)`` int64 arrays of canonical rows.
    """

    owners: np.ndarray
    table: np.ndarray
    goal_edges: np.ndarray
    bad_edges: np.ndarray
    num_clusters: int
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def cliques(self) -> Set[Clique]:
        return materialize_rows(self.table)


def arb_list(
    state: ArbListState,
    params: AlgorithmParameters,
    rng: np.random.Generator,
    ledger: RoundLedger,
    phase_prefix: str = "arb",
) -> ArbListOutcome:
    """Run one ARB-LIST invocation, mutating ``state`` for the next one.

    After the call, ``state.er_keys`` is the new Êr,
    ``state.es_orientation`` includes the new E's, the listed goal edges
    Êm are removed from the graph, and ``state.orientation`` is restricted
    to the surviving edges.
    """
    n = state.n
    er_graph = Graph.from_edge_array(n, key_pairs(state.er_keys, n))
    decomposition = expander_decomposition(
        er_graph, threshold=state.threshold, phi=params.phi, ledger=ledger
    )
    # Rename the decomposition charge under this invocation's prefix.
    last = ledger.phases()[-1]
    last.name = f"{phase_prefix}/expander_decomposition"

    # Fold E's into Ês.
    state.es_orientation = state.es_orientation.merged_with(
        decomposition.es_orientation
    )

    current = state.current_graph()
    chunks = []  # (owners, table) pairs
    phase_max: Dict[str, float] = {}
    makespan_max: Dict[str, float] = {}
    stats: Dict[str, float] = {
        "clusters": float(len(decomposition.clusters)),
        "er_in": float(state.er_keys.size),
    }

    cluster_outcomes = []
    stat_max: Dict[str, float] = {}
    for cluster in decomposition.clusters:
        outcome = process_cluster(
            current, state.orientation, cluster, state.arboricity, params, rng
        )
        cluster_outcomes.append((cluster, outcome))
        chunks.append((outcome.owners, outcome.table))
        for phase, rounds in outcome.phase_rounds.items():
            phase_max[phase] = max(phase_max.get(phase, 0.0), rounds)
        for phase, makespan in outcome.phase_makespans.items():
            makespan_max[phase] = max(makespan_max.get(phase, 0.0), makespan)
        for key, value in outcome.stats.items():
            stat_max[key] = max(stat_max.get(key, 0.0), float(value))

    # Per-phase charges carry the worst-over-clusters measured loads that
    # justify them (the benchmarks read these back for the E8 checks).
    _PHASE_STATS = {
        "gather_heavy": ("heavy_nodes", "heavy_worst_chunk_words", "received_max_per_node"),
        "gather_light": ("light_nodes", "light_worst_link_words", "received_max_per_node"),
        "reshuffle": ("max_owned_edges", "total_owned_edges"),
        "learn_edges": (
            "sparsity_max_recv_words",
            "sparsity_max_send_words",
            "sparsity_known_edges",
            "cluster_size",
        ),
        "partition": ("sparsity_parts", "cluster_size"),
    }
    for phase, rounds in phase_max.items():
        attached = {
            key.replace("sparsity_", ""): stat_max[key]
            for key in _PHASE_STATS.get(phase, ())
            if key in stat_max
        }
        if phase == "fault_recovery":
            # Healing overhead (max over parallel clusters, like every
            # other phase) is honest cost, charged under the recovery
            # tag so delivery rows stay comparable to fault-free runs.
            ledger.charge_recovery(
                f"{phase_prefix}/{phase}",
                rounds,
                retries=stat_max.get("fault_retries", 0.0),
            )
        else:
            # A phase finishes when its slowest cluster does on the
            # overlay too; a makespan equal to the rounds stays implicit,
            # so clique-topology rows are unchanged.
            makespan = makespan_max.get(phase, rounds)
            ledger.charge(
                f"{phase_prefix}/{phase}",
                rounds,
                makespan=None if makespan == rounds else makespan,
                **attached,
            )

    # K4 variant (§3): light-incident outside edges were never gathered;
    # C-light nodes list those K4 themselves, clusters one after another.
    if params.variant == K4_VARIANT and cluster_outcomes:
        light_listed = sequential_light_phase(
            current,
            [(cluster.nodes, outcome.light) for cluster, outcome in cluster_outcomes],
            ledger,
            f"{phase_prefix}/light_listing",
        )
        chunks.append(attribution_arrays(light_listed, params.p))

    no_edges = decomposition.er_edges[:0]
    goal_edges = np.concatenate([no_edges, *(o.goal_edges for _, o in cluster_outcomes)])
    bad_edges = np.concatenate([no_edges, *(o.bad_edges for _, o in cluster_outcomes)])
    # New Êr: leftover of the decomposition plus the demoted bad edges.
    state.er_keys = edge_keys(np.concatenate([decomposition.er_edges, bad_edges]), n)
    # Êm (the listed goal edges) leaves the graph.
    state.orientation = state.orientation.restricted_to(state.current_keys())

    stats["goal_edges"] = float(len(goal_edges))
    stats["bad_edges"] = float(len(bad_edges))
    stats["er_out"] = float(state.er_keys.size)
    owners, table = join_attributions(chunks, params.p)
    return ArbListOutcome(
        owners=owners,
        table=table,
        goal_edges=goal_edges,
        bad_edges=bad_edges,
        num_clusters=len(decomposition.clusters),
        stats=stats,
    )
