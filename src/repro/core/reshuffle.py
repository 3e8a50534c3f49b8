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
from typing import Dict, List, Set, Tuple, Union

import numpy as np

from repro.congest.batch import MessageBatch
from repro.congest.ledger import RoundLedger
from repro.congest.routing import ClusterRouter
from repro.core.gather import GatheredPairs
from repro.graphs.graph import Graph
from repro.graphs.keys import key_pairs, unique_sorted
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
    """Columnar reshuffle: every member's known edges in one array, one
    sort deduplicating them per sender, one batch through the router and
    one sort deduplicating the arrivals per owner."""
    n = graph.num_nodes
    members = sorted(cluster_members)
    members_arr = np.asarray(members, dtype=np.int64)
    owner_of, _new_id = owner_assignment(members, n)
    chunk = math.ceil(n / len(members))
    owner_table = members_arr[
        np.minimum(len(members) - 1, np.arange(n, dtype=np.int64) // chunk)
    ]

    # Known edges, member by member: its own CSR row, then what it gathered.
    native_from, native_to = graph.to_csr().neighbor_pairs(members_arr)
    blocks = [
        np.asarray(gathered.get(u, ()), dtype=np.int64).reshape(-1, 2) for u in members
    ]
    rows = np.concatenate(blocks)
    senders = np.concatenate(
        [native_from, np.repeat(members_arr, [block.shape[0] for block in blocks])]
    )
    src, dst = orientation.direction_array(
        np.concatenate([native_from, rows[:, 0]]),
        np.concatenate([native_to, rows[:, 1]]),
    )
    # Dedup per sender (native ∩ gathered overlap): sorting the keys
    # (sender, src, dst) leaves members ascending, each one's edges
    # ascending.  Keys stay below n³, inside int64 for every n < 2^21.
    senders, edges = _split_keys(unique_sorted((senders * n + src) * n + dst), n)
    batch = MessageBatch.of_edges(
        src=senders, dst=owner_table[edges[:, 0]], endpoints=edges.astype(np.uint32)
    )
    # As in the object path: recovery rows may follow the primary charge.
    mark = len(ledger)
    delivered = router.route_batch(batch, ledger, phase)

    # Arrival dedup, one sort over every mailbox.
    recipients = np.repeat(
        np.arange(delivered.indptr.size - 1, dtype=np.int64),
        np.diff(delivered.indptr),
    )
    arrived = delivered.payload.astype(np.int64).reshape(-1, 2)
    owners, table = _split_keys(
        unique_sorted((recipients * n + arrived[:, 0]) * n + arrived[:, 1]), n
    )
    lo = np.searchsorted(owners, members_arr, side="left")
    hi = np.searchsorted(owners, members_arr, side="right")
    owned = {u: table[a:b] for u, a, b in zip(members, lo.tolist(), hi.tolist())}
    counts = hi - lo
    return ReshuffleResult(
        owned=owned,
        owner_of=owner_of,
        rounds=ledger.phases()[mark].rounds,
        stats={
            "max_owned_edges": float(counts.max(initial=0)),
            "total_owned_edges": float(counts.sum()),
        },
    )


def _split_keys(keys: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(node·n + src)·n + dst`` keys back to ``node`` and ``(src, dst)`` rows."""
    node, edge = np.divmod(keys, n * n)
    return node, key_pairs(edge, n)
