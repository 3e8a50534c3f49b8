"""Load-balanced edge ownership inside a cluster (§2.4.3, "Reshuffling").

After gathering, the edges known inside a cluster are scattered according
to *who happened to learn them*.  The sparsity-aware listing instead needs
them grouped by **orientation source**: for every graph node x (inside or
outside C), exactly one cluster member must hold all edges oriented away
from x.  The paper's scheme: the member with new ID i ∈ [k] owns the
original IDs in ((i−1)·n/k, i·n/k]; since every node has ≤ A out-edges
(the arboricity witness), each member ends up owning O(A·n/k) edges.

The reshuffle routes every known edge to the owner of its source via
Theorem 2.4 (the :class:`~repro.congest.routing.ClusterRouter` charge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple, Union

import numpy as np

from repro.congest.batch import MessageBatch
from repro.congest.ledger import RoundLedger
from repro.congest.routing import ClusterRouter
from repro.core.gather import GatheredPairs
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.graphs.orientation import Orientation

#: A member's owned edges: tuple set (object plane) or (k, 2) array (batch).
OwnedEdges = Union[Set[Tuple[int, int]], np.ndarray]


@dataclass
class ReshuffleResult:
    """Outcome of the ownership reshuffle for one cluster.

    Attributes
    ----------
    owned:
        owner member -> oriented (src, dst) edges it now holds (tuple set
        on the object plane, ``(k, 2)`` array on the batch plane); every
        edge's src lies in the owner's original-ID range.
    owner_of:
        original node ID -> owning member (total function on [n]).
    rounds:
        Theorem 2.4 charge for the routing step.
    stats:
        Measured loads.
    """

    owned: Dict[int, OwnedEdges]
    owner_of: Dict[int, int]
    rounds: float
    stats: Dict[str, float] = field(default_factory=dict)


def owner_assignment(
    cluster_members: List[int], n: int
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """(owner_of, new_id) maps for a cluster.

    ``cluster_members`` sorted defines the new IDs 1..k (Lemma 2.5); the
    member with new ID i owns original IDs [(i−1)·⌈n/k⌉, i·⌈n/k⌉).
    """
    members = sorted(cluster_members)
    k = len(members)
    chunk = math.ceil(n / k)
    owner_of: Dict[int, int] = {}
    for x in range(n):
        index = min(k - 1, x // chunk)
        owner_of[x] = members[index]
    new_id = {member: i + 1 for i, member in enumerate(members)}
    return owner_of, new_id


def reshuffle_edges(
    graph: Graph,
    orientation: Orientation,
    cluster_members: List[int],
    gathered: Dict[int, GatheredPairs],
    router: ClusterRouter,
    ledger: RoundLedger,
    phase: str,
    plane: str = "object",
) -> ReshuffleResult:
    """Route every cluster-known edge to its source's owner.

    What each member u knows before the reshuffle:

    - its own incident edges (native CONGEST knowledge),
    - the gathered outside edges recorded under u.

    Every known edge is re-keyed by the *global* orientation (so both the
    (w, v') pairs from the light pull and native incident edges route
    consistently) and sent to ``owner_of[src]``.  Each member deduplicates
    on arrival.  The batch plane performs the identical movement as
    one :class:`~repro.congest.batch.MessageBatch` through
    :meth:`ClusterRouter.route_batch` — same ledger charge, array
    mailboxes in, array ``owned`` out.  (Cluster reshuffles stay inline
    whatever the executor: their batches are orders of magnitude below
    the shard threshold.)
    """
    if plane == "batch":
        return _reshuffle_batch(
            graph, orientation, cluster_members, gathered, router, ledger, phase
        )
    n = graph.num_nodes
    members = sorted(cluster_members)
    member_set = set(members)
    owner_of, _new_id = owner_assignment(members, n)

    messages: Dict[int, List[Tuple[int, Tuple[int, int]]]] = {u: [] for u in members}
    for u in members:
        known: Set[Tuple[int, int]] = set()
        for v in graph.neighbors(u):
            known.add(orientation.direction(u, v))
        for pair in gathered.get(u, ()):  # oriented or arbitrary pairs
            src, dst = pair
            known.add(orientation.direction(src, dst))
        for src, dst in known:
            messages[u].append((owner_of[src], (src, dst)))

    # The healing loop may append recovery rows after the primary charge,
    # so remember where this phase's row will land before routing.
    mark = len(ledger)
    delivered = router.route(messages, ledger, phase, words_per_message=2)
    owned: Dict[int, Set[Tuple[int, int]]] = {u: set() for u in members}
    for u, payloads in delivered.items():
        for src, dst in payloads:
            owned[u].add((src, dst))

    max_owned = max((len(s) for s in owned.values()), default=0)
    return ReshuffleResult(
        owned=owned,
        owner_of=owner_of,
        rounds=ledger.phases()[mark].rounds,
        stats={
            "max_owned_edges": float(max_owned),
            "total_owned_edges": float(sum(len(s) for s in owned.values())),
        },
    )


def _reshuffle_batch(
    graph: Graph,
    orientation: Orientation,
    cluster_members: List[int],
    gathered: Dict[int, np.ndarray],
    router: ClusterRouter,
    ledger: RoundLedger,
    phase: str,
) -> ReshuffleResult:
    """Columnar reshuffle: per-member known edges as deduplicated arrays,
    one batch through the router, per-owner dedup on the sorted columns."""
    n = graph.num_nodes
    members = sorted(cluster_members)
    members_arr = np.asarray(members, dtype=np.int64)
    owner_of, _new_id = owner_assignment(members, n)
    chunk = math.ceil(n / len(members))
    owner_table = members_arr[
        np.minimum(len(members) - 1, np.arange(n, dtype=np.int64) // chunk)
    ]

    csr = graph.to_csr()
    empty = np.empty(0, dtype=np.int64)
    src_cols: List[np.ndarray] = []
    dst_cols: List[np.ndarray] = []
    sender_cols: List[np.ndarray] = []
    for u in members:
        nbrs = csr.neighbors(u)
        rows = gathered.get(u)
        if rows is not None and len(rows):
            a = np.concatenate([np.full(nbrs.size, u, dtype=np.int64), rows[:, 0]])
            b = np.concatenate([nbrs, rows[:, 1]])
        else:
            a = np.full(nbrs.size, u, dtype=np.int64)
            b = nbrs
        if a.size == 0:
            continue
        src, dst = orientation.direction_array(a, b)
        keys = np.unique(src * n + dst)  # dedup: native ∩ gathered overlap
        src_cols.append(keys // n)
        dst_cols.append(keys % n)
        sender_cols.append(np.full(keys.size, u, dtype=np.int64))
    if src_cols:
        edge_src = np.concatenate(src_cols)
        edge_dst = np.concatenate(dst_cols)
        senders = np.concatenate(sender_cols)
    else:
        edge_src = edge_dst = senders = empty
    endpoints = np.empty((edge_src.size, 2), dtype=np.uint32)
    endpoints[:, 0] = edge_src
    endpoints[:, 1] = edge_dst
    batch = MessageBatch.of_edges(
        src=senders, dst=owner_table[edge_src] if edge_src.size else empty,
        endpoints=endpoints,
    )
    # As in the object path: recovery rows may follow the primary charge.
    mark = len(ledger)
    delivered = router.route_batch(batch, ledger, phase)

    owned: Dict[int, np.ndarray] = {}
    max_owned = 0
    total_owned = 0
    for u in members:
        rows = delivered.payload_rows(u).astype(np.int64)
        if rows.shape[0]:
            keys = np.unique(rows[:, 0] * n + rows[:, 1])  # arrival dedup
            rows = np.empty((keys.size, 2), dtype=np.int64)
            rows[:, 0] = keys // n
            rows[:, 1] = keys % n
        owned[u] = rows
        max_owned = max(max_owned, rows.shape[0])
        total_owned += rows.shape[0]
    return ReshuffleResult(
        owned=owned,
        owner_of=owner_of,
        rounds=ledger.phases()[mark].rounds,
        stats={
            "max_owned_edges": float(max_owned),
            "total_owned_edges": float(total_owned),
        },
    )
