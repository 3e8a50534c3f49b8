"""End-to-end processing of one cluster inside ARB-LIST.

Pipeline per cluster C (§2.4.1 → §2.4.3):

1. classify outside neighbors into C-heavy / C-light;
2. find bad nodes, demote bad edges (generic variant only);
3. gather outside edges (heavy push always; light pull only in the
   generic variant);
4. assign new IDs (Lemma 2.5) and reshuffle known edges to owners;
5. sparsity-aware listing of every Kp touching a goal edge.

All clusters of one decomposition execute these phases *in parallel* on
disjoint edge sets, so ARB-LIST charges the per-phase maximum over
clusters; this module therefore reports per-phase costs instead of
writing the shared ledger directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set, Tuple

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.congest.routing import ClusterRouter
from repro.core.bad_edges import BadEdgeSplit, split_bad_edges
from repro.core.gather import gather_outside_edges
from repro.core.heavy_light import classify_outside_neighbors
from repro.core.params import AlgorithmParameters, K4_VARIANT
from repro.core.reshuffle import reshuffle_edges
from repro.core.sparsity_aware import sparsity_aware_listing
from repro.decomposition.cluster import Cluster
from repro.graphs.graph import Graph
from repro.graphs.orientation import Orientation
from repro.graphs.table import materialize_rows

Clique = FrozenSet[int]


@dataclass
class ClusterOutcome:
    """Everything ARB-LIST needs back from one cluster.

    Attributes
    ----------
    owners / table:
        The sparsity-aware listing's output pair: row ``i`` of the
        ``(c, p)`` int64 ``table`` is a clique output by member
        ``owners[i]``.
    bad_edges:
        Cluster edges demoted to Êr (empty in the K4 variant).
    goal_edges:
        Cluster edges whose Kp obligations this iteration fulfilled.
        Both are ``(m, 2)`` int64 arrays of cluster edge rows.
    phase_rounds:
        Phase name -> rounds for this cluster (ARB-LIST takes maxima).
    phase_makespans:
        Phase name -> overlay makespan of the phases the cluster router
        charged (reshuffle, partition, learn_edges); maxima again.
    stats:
        Measured quantities for reports.
    """

    owners: np.ndarray
    table: np.ndarray
    bad_edges: np.ndarray
    goal_edges: np.ndarray
    phase_rounds: Dict[str, float]
    phase_makespans: Dict[str, float]
    light: FrozenSet[int] = frozenset()
    members: Tuple[int, ...] = ()
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def cliques(self) -> Set[Clique]:
        return materialize_rows(self.table)


def process_cluster(
    graph: Graph,
    orientation: Orientation,
    cluster: Cluster,
    arboricity: int,
    params: AlgorithmParameters,
    rng: np.random.Generator,
) -> ClusterOutcome:
    """Run the per-cluster pipeline; see module docstring.

    Parameters
    ----------
    graph:
        Current full graph G = (V, Es ∪ Er) — adjacency source of truth.
    orientation:
        Global arboricity-witness orientation of *all* current edges
        (max out-degree ≤ ``arboricity``).
    cluster:
        The decomposition cluster to process.
    arboricity:
        The current arboricity witness A (= n^d in the paper).
    """
    n = graph.num_nodes
    execution = params.execution
    members = sorted(cluster.nodes)
    k4_mode = params.variant == K4_VARIANT
    phase_rounds: Dict[str, float] = {}
    stats: Dict[str, float] = {"cluster_size": float(len(members))}

    # -- Phase 1: heavy/light classification.
    heavy_threshold = params.heavy_threshold(n, arboricity)
    split = classify_outside_neighbors(graph, set(members), heavy_threshold)
    phase_rounds["classify"] = float(split.rounds)
    stats["heavy"] = float(len(split.heavy))
    stats["light"] = float(len(split.light))

    # -- Phase 2: bad nodes (generic variant only; §3 skips demotion).
    if k4_mode:
        bad = BadEdgeSplit(
            bad_nodes=frozenset(),
            bad_edges=cluster.edges[:0],
            goal_edges=cluster.edges,
            light_degree={},
        )
    else:
        bad = split_bad_edges(
            graph,
            set(members),
            cluster.edges,
            split.light,
            params.bad_threshold(n),
        )
    phase_rounds["bad_nodes"] = 1.0  # one broadcast of the bad flag
    stats["bad_nodes"] = float(len(bad.bad_nodes))
    stats["bad_edges"] = float(len(bad.bad_edges))

    # -- Phase 3: gather outside edges into the cluster.
    gather = gather_outside_edges(
        graph,
        orientation,
        set(members),
        split.heavy,
        split.light,
        bad.bad_nodes,
        include_light=not k4_mode,
        plane=execution.plane,
    )
    phase_rounds["gather_heavy"] = gather.heavy_push_rounds
    phase_rounds["gather_light"] = gather.light_pull_rounds
    stats.update(gather.stats)

    # -- Phase 4: new IDs (Lemma 2.5, polylog rounds) and reshuffle.
    phase_rounds["new_ids"] = math.log2(max(2, n))
    # The fault seam rides the cluster router: one injector per cluster
    # (clusters route in parallel over disjoint edges, so each gets its
    # own deterministic fault stream).
    faults_active = execution.faults is not None and execution.faults.active
    router = ClusterRouter(
        members,
        capacity=max(1, cluster.min_internal_degree),
        n=n,
        cost_model=execution.cost_model,
        faults=execution.faults.injector() if faults_active else None,
        topology=execution.topology,
    )
    local_ledger = RoundLedger()
    reshuffle = reshuffle_edges(
        graph,
        orientation,
        members,
        gather.received,
        router,
        local_ledger,
        "reshuffle",
        plane=execution.plane,
    )
    phase_rounds["reshuffle"] = reshuffle.rounds
    stats.update(reshuffle.stats)

    # -- Phase 5: sparsity-aware listing.
    outcome = sparsity_aware_listing(
        n,
        members,
        reshuffle.owned,
        bad.goal_edges,
        params,
        router,
        local_ledger,
        rng,
        "sparsity",
    )
    phase_rounds["partition"] = outcome.partition_rounds
    phase_rounds["learn_edges"] = outcome.learning_rounds
    stats.update({f"sparsity_{k}": v for k, v in outcome.stats.items()})
    # The cluster router priced these three phases on the overlay too.
    makespans = {
        ph.name: ph.effective_makespan for ph in local_ledger.delivery_phases()
    }
    phase_makespans = {
        "reshuffle": makespans["reshuffle"],
        "partition": makespans["sparsity/partition"],
        "learn_edges": makespans["sparsity/learn_edges"],
    }

    # Healing overhead inside this cluster (retries, stragglers).  Only
    # reported with an active seam so the fault-free phase set — and
    # hence ARB-LIST's charged rows — stays exactly as before.
    if faults_active:
        phase_rounds["fault_recovery"] = local_ledger.recovery_rounds
        stats["fault_retries"] = float(
            sum(1 for ph in local_ledger.phases() if ph.recovery)
        )

    return ClusterOutcome(
        owners=outcome.owners,
        table=outcome.table,
        bad_edges=bad.bad_edges,
        goal_edges=bad.goal_edges,
        phase_rounds=phase_rounds,
        phase_makespans=phase_makespans,
        light=split.light,
        members=tuple(members),
        stats=stats,
    )
