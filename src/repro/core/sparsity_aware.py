"""Sparsity-aware in-cluster Kp listing (§2.4.3).

The cluster behaves as a small congested-clique computer: after the
reshuffle every known edge sits with the owner of its orientation source.
The steps are then

1. **partition** — every graph node joins one of s = ⌊k^{1/p}⌋ parts
   uniformly at random (each owner draws for the nodes it simulates and
   broadcasts the choices: O(n) words per member, Theorem 2.4 charge);
2. **assignment** — member with new ID i takes the p parts spelled by the
   base-s digits of i−1 (all s^p ≤ k digit sequences are covered);
3. **learning** — each owner sends each owned edge to every member whose
   assigned parts contain both endpoint parts; member i thus learns *all*
   known edges between its parts;
4. **local listing** — member i enumerates Kp in its learned edge set and
   outputs those containing a goal edge.  On the batch plane the goal
   test rides the listing kernel: each partial clique carries whether a
   goal edge is among its edges so far and the goal neighbours of its
   members, so the kernel emits only goal-touching rows
   (:func:`~repro.graphs.csr.clique_table_from_edge_array`'s ``goal``).

Execution note (docs/architecture.md §3): outputs and loads are computed
in aggregate — per-pair edge counts drive the exact Theorem 2.4 charges,
and each clique is attributed to the member whose digit sequence equals
the clique's sorted part multiset, which is precisely the node that lists
it in the message-level execution.  The attributed cliques leave as one
``(owners, table)`` array pair, the form
:meth:`~repro.core.result.ListingResult.attribute_table` takes.  This is
an optimization of the simulation, not of the algorithm: outputs and
round charges are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.congest.ledger import RoundLedger
from repro.congest.routing import ClusterRouter
from repro.congest.topology import makespan_for_rounds
from repro.core.params import AlgorithmParameters
from repro.core.reshuffle import OwnedEdges
from repro.core.partition import (
    VertexPartition,
    num_part_pairs,
    pair_index_array,
    pair_recipient_count,
    radix_assignment,
    radix_digit_table,
    random_partition,
    responsible_index_array,
    responsible_new_id,
)
from repro.core.result import attribution_arrays
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.csr import clique_table_from_edge_array
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.graphs.table import materialize_rows

Clique = FrozenSet[int]


@dataclass
class SparsityAwareOutcome:
    """Output of the in-cluster listing step.

    Attributes
    ----------
    owners / table:
        ``(c,)`` and ``(c, p)`` int64 arrays: row ``i`` of ``table`` (members
        ascending) is a clique output by member ``owners[i]``, the member
        owning its part multiset.
    partition_rounds / learning_rounds:
        Theorem 2.4 charges of the two communication steps.
    stats:
        Measured loads (max send/recv words, edges known, parts).
    """

    owners: np.ndarray
    table: np.ndarray
    partition_rounds: float
    learning_rounds: float
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def cliques(self) -> Set[Clique]:
        return materialize_rows(self.table)


def sparsity_aware_listing(
    n: int,
    members: List[int],
    owned: Dict[int, OwnedEdges],
    goal_edges: FrozenSet[Edge],
    params: AlgorithmParameters,
    router: ClusterRouter,
    ledger: RoundLedger,
    rng: np.random.Generator,
    phase_prefix: str,
) -> SparsityAwareOutcome:
    """Run §2.4.3 for one cluster.

    Parameters
    ----------
    n:
        Global node count.
    members:
        Cluster members (sorted order defines the new IDs 1..k).
    owned:
        Post-reshuffle edge ownership (oriented (src, dst) pairs — tuple
        sets on the object plane, ``(k, 2)`` arrays on the batch plane).
    goal_edges:
        The cluster's listing obligation; only cliques containing at
        least one of these are output.
    params:
        ``params.execution.plane`` picks the path.  ``"object"`` works
        on python sets.  ``"batch"`` computes the p²-fan-out loads with
        ``np.bincount`` over edge arrays and lists the learned subgraph
        through the array kernel — identical charges and outputs, no
        Python sets; with ``workers > 1`` or ``hosts`` that listing
        runs on :meth:`~repro.core.config.ExecutionConfig.resolve_executor`'s
        pool or cluster through the identical kernels — same table,
        same charges.
    """
    if params.execution.plane == "batch":
        return _sparsity_aware_batch(
            n, members, owned, goal_edges, params, router, ledger, rng,
            phase_prefix,
        )
    members = sorted(members)
    k = len(members)
    p = params.p
    s = params.num_parts(k)

    # -- Step 1: random partition, chosen by owners, broadcast cluster-wide.
    partition = random_partition(n, s, rng)
    per_member_choices = math.ceil(n / k)
    # Every member broadcasts its ~n/k choices to all k members: each
    # member sends and receives ~n words (§2.4.3 charges O(n) messages).
    partition_rounds = router.rounds_for_load(
        k * per_member_choices, k * per_member_choices
    )
    ledger.charge(
        f"{phase_prefix}/partition",
        partition_rounds,
        makespan=makespan_for_rounds(router.topology, partition_rounds),
        parts=s,
        words=k * per_member_choices,
    )

    # -- Step 2/3: aggregate loads of the learning step.
    pair_counts: Dict[Tuple[int, int], int] = {}
    all_edges: Set[Edge] = set()
    send_load: Dict[int, int] = {u: 0 for u in members}
    for owner, edges in owned.items():
        for src, dst in edges:
            pair = partition.pair_of_edge(src, dst)
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
            all_edges.add(canonical_edge(src, dst))
            recipients = pair_recipient_count(s, p, pair[0], pair[1])
            send_load[owner] += 2 * recipients

    recv_load: Dict[int, int] = {u: 0 for u in members}
    assignments: Dict[int, Optional[Tuple[int, ...]]] = {}
    for index, member in enumerate(members):
        assignment = radix_assignment(index + 1, s, p)
        assignments[member] = assignment
        if assignment is None:
            continue
        parts = sorted(set(assignment))
        words = 0
        for i, a in enumerate(parts):
            for b in parts[i:]:
                words += 2 * pair_counts.get((a, b), 0)
        recv_load[member] = words

    max_send = max(send_load.values(), default=0)
    max_recv = max(recv_load.values(), default=0)
    learning_rounds = router.rounds_for_load(max_send, max_recv)
    ledger.charge(
        f"{phase_prefix}/learn_edges",
        learning_rounds,
        makespan=makespan_for_rounds(router.topology, learning_rounds),
        max_send_words=max_send,
        max_recv_words=max_recv,
        known_edges=len(all_edges),
    )

    # -- Step 4: listing.  Enumerate once over the cluster-known edge set
    # and attribute each goal clique to the member that lists it.
    known_graph = Graph(n, all_edges)
    listed: Dict[int, Set[Clique]] = {}
    goal = set(goal_edges)
    for clique in enumerate_cliques(known_graph, p):
        if not _touches_goal(clique, goal):
            continue
        part_multiset = [partition.part_of[v] for v in sorted(clique)]
        new_id = responsible_new_id(part_multiset, s, p)
        member = members[new_id - 1]
        listed.setdefault(member, set()).add(clique)

    owners, table = attribution_arrays(listed, p)
    stats = {
        "parts": float(s),
        "known_edges": float(len(all_edges)),
        "max_send_words": float(max_send),
        "max_recv_words": float(max_recv),
        "cliques_listed": float(owners.size),
    }
    return SparsityAwareOutcome(
        owners=owners,
        table=table,
        partition_rounds=partition_rounds,
        learning_rounds=learning_rounds,
        stats=stats,
    )


def _sparsity_aware_batch(
    n: int,
    members: List[int],
    owned: Dict[int, np.ndarray],
    goal_edges: FrozenSet[Edge],
    params: AlgorithmParameters,
    router: ClusterRouter,
    ledger: RoundLedger,
    rng: np.random.Generator,
    phase_prefix: str,
) -> SparsityAwareOutcome:
    """§2.4.3 on the batch plane: fan-out loads via ``np.bincount`` over
    edge arrays, learned-subgraph listing via the array kernel (sharded
    by the run's executor when it has one).  The rng
    draw, every charged round and every stat are identical to the object
    path — only the bookkeeping substrate changes."""
    members = sorted(members)
    k = len(members)
    p = params.p
    s = params.num_parts(k)

    # -- Step 1: identical to the object path (same single rng draw).
    partition = random_partition(n, s, rng)
    per_member_choices = math.ceil(n / k)
    partition_rounds = router.rounds_for_load(
        k * per_member_choices, k * per_member_choices
    )
    ledger.charge(
        f"{phase_prefix}/partition",
        partition_rounds,
        makespan=makespan_for_rounds(router.topology, partition_rounds),
        parts=s,
        words=k * per_member_choices,
    )

    # -- Step 2/3: aggregate loads, one bincount per quantity.
    blocks = [np.asarray(owned.get(u, np.empty((0, 2))), dtype=np.int64) for u in members]
    owner_pos = np.repeat(
        np.arange(k, dtype=np.int64), [b.shape[0] for b in blocks]
    )
    edges = (
        np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    )
    part_arr = partition.part_array()
    npairs = num_part_pairs(s)
    # Recipient counts per pair index — the exact numbers the object
    # plane obtains per edge, evaluated once per pair.
    pair_lo = np.repeat(np.arange(s, dtype=np.int64), np.arange(s, 0, -1))
    pair_hi = np.concatenate([np.arange(a, s, dtype=np.int64) for a in range(s)])
    recipients_per_pair = np.asarray(
        [pair_recipient_count(s, p, int(a), int(b)) for a, b in zip(pair_lo, pair_hi)],
        dtype=np.int64,
    )

    if edges.shape[0]:
        pair_idx = pair_index_array(part_arr[edges[:, 0]], part_arr[edges[:, 1]], s)
        send_load = np.bincount(
            owner_pos, weights=2 * recipients_per_pair[pair_idx], minlength=k
        ).astype(np.int64)
        pair_counts = np.bincount(pair_idx, minlength=npairs)
        canonical = np.unique(
            np.minimum(edges[:, 0], edges[:, 1]) * n
            + np.maximum(edges[:, 0], edges[:, 1])
        )
        known = np.empty((canonical.size, 2), dtype=np.int64)
        known[:, 0] = canonical // n
        known[:, 1] = canonical % n
    else:
        send_load = np.zeros(k, dtype=np.int64)
        pair_counts = np.zeros(npairs, dtype=np.int64)
        known = np.empty((0, 2), dtype=np.int64)

    assigned = min(k, s**p)
    membership_digits = radix_digit_table(s, p)[:assigned]
    member_has_part = (
        membership_digits[:, :, None] == np.arange(s, dtype=np.int64)
    ).any(axis=1)
    recv_load = np.zeros(k, dtype=np.int64)
    for pair in range(npairs):
        if pair_counts[pair]:
            both = member_has_part[:, pair_lo[pair]] & member_has_part[:, pair_hi[pair]]
            recv_load[:assigned][both] += 2 * pair_counts[pair]

    max_send = int(send_load.max(initial=0))
    max_recv = int(recv_load.max(initial=0))
    learning_rounds = router.rounds_for_load(max_send, max_recv)
    ledger.charge(
        f"{phase_prefix}/learn_edges",
        learning_rounds,
        makespan=makespan_for_rounds(router.topology, learning_rounds),
        max_send_words=max_send,
        max_recv_words=max_recv,
        known_edges=known.shape[0],
    )

    # -- Step 4: list the learned subgraph's goal-touching cliques (the
    # goal test rides the level pipeline), attribute each row to the
    # member owning its part multiset.
    goal = np.fromiter(
        chain.from_iterable(goal_edges), dtype=np.int64, count=2 * len(goal_edges)
    ).reshape(-1, 2)
    executor = params.execution.resolve_executor()
    if executor is not None:
        kept = executor.clique_table(known, p, goal)
    else:
        kept = clique_table_from_edge_array(known, p, goal)
    owners = np.asarray(members, dtype=np.int64)[
        responsible_index_array(part_arr[kept], s)
    ]

    stats = {
        "parts": float(s),
        "known_edges": float(known.shape[0]),
        "max_send_words": float(max_send),
        "max_recv_words": float(max_recv),
        "cliques_listed": float(kept.shape[0]),
    }
    return SparsityAwareOutcome(
        owners=owners,
        table=kept,
        partition_rounds=partition_rounds,
        learning_rounds=learning_rounds,
        stats=stats,
    )


def _touches_goal(clique: Clique, goal_edges: Set[Edge]) -> bool:
    members = sorted(clique)
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if (u, v) in goal_edges:
                return True
    return False
