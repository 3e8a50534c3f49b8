"""Sparsity-aware Kp listing in the CONGESTED CLIQUE (Theorem 1.3).

The §2.4.3 machinery run on the whole clique of n nodes:

1. every node computes/learns a low-out-degree orientation of its edges
   (degeneracy orientation; O(log n)-round H-partition charge);
2. the n nodes partition into s = ⌊n^{1/p}⌋ parts uniformly at random;
   one round announces everyone's part;
3. node with ID i takes the p parts spelled by the base-s digits of i and
   must learn every edge between them; every node sends each of its
   out-edges to the O(p²·n^{1−2/p}) responsible nodes — one Lenzen routing
   step whose measured load is O(p²·m/n^{2/p}) w.h.p. (Lemma 2.7), i.e.
   Θ̃(1 + m/n^{1+2/p}) rounds.  A node's load is a sum of per-pair edge
   counts, so the step is charged from those counts;
4. each Kp is kept by exactly one node: the owner whose ascending digit
   sequence is the clique's sorted part multiset.  Every multiset of p
   parts is some owner's digits, so the union is complete.  Only the
   C(s+p−1, p) owners can keep a Kp: each takes the edges of the part
   pairs its digits spell (the part of its learned subgraph a kept Kp
   can use) and lists the Kp in them.  The other nodes receive their
   share of step 3 (it is charged) but can never keep a Kp.

The data movement of step 3 *executes* in the layout
``params.execution.plane`` selects (``docs/architecture.md`` § routing
planes):

- ``plane="batch"`` (default) — the fan-out stays factored
  (:class:`~repro.congest.batch.FanoutBatch`: the CSR forward edges
  sorted by part pair plus one recipient list per pair) and is charged
  through :meth:`CongestedClique.charge_batch` (the ledger rows of
  ``route_batch``) from its per-pair counts.  Step 4 is local
  computation, which the model does not charge: an intact delivery is
  listed once, as one mailbox, and each Kp attributed to the owner of
  its part multiset — exactly the union of the owners' listings; a
  delivery with silently corrupted rows lists each owner's mailbox
  (:func:`~repro.core.partition.owner_mailboxes`) instead.  No (edge,
  recipient) row and no Python set is built.  With
  ``execution.workers > 1`` or ``execution.hosts`` the listing runs on
  a worker-process pool (:class:`repro.parallel.ShardExecutor`) or a
  cluster (:mod:`repro.dist`);
- ``plane="object"`` — every (edge, recipient) pair becomes one Python
  tuple through :meth:`CongestedClique.route` dict mailboxes and every
  learned subgraph, owner or not, is rebuilt set-by-set and listed.
  This is the unfiltered reference the differential tests pin the
  batch plane against.

Both planes, on every executor, charge **identical** ledger rounds:
the charge is a function of the measured per-node word loads, which
both planes count through the same router core
(:class:`~repro.congest.routing.Router`).

If m is so small that Lemma 2.7's conditions fail, the paper pads with
*fake edges* until m/n^{1/p} = 20·n·log n — the round count is Õ(1)
there anyway.  ``pad_fake_edges=True`` reproduces that accounting: fake
words inflate the charged loads on both planes identically but are never
routed and never listed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.congest.batch import fanout_edges_by_pair
from repro.congest.congested_clique import CongestedClique
from repro.congest.topology import makespan_for_rounds
from repro.core.params import AlgorithmParameters
from repro.core.partition import (
    owner_mailboxes,
    pair_index_array,
    pair_recipient_count,
    pair_recipient_lists,
    radix_digit_table,
    random_partition,
    responsible_index_array,
    responsible_new_id,
)
from repro.core.result import ListingResult, recount_self_check
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.csr import BITSET_MAX_NODES, grouped_clique_tables
from repro.graphs.table import CliqueTable
from repro.graphs.graph import Graph
from repro.graphs.orientation import degeneracy_orientation


def num_parts_for_clique(n: int, p: int) -> int:
    """s = ⌊n^{1/p}⌋ with float-undershoot correction."""
    s = int(math.floor(n ** (1.0 / p)))
    while (s + 1) ** p <= n:
        s += 1
    return max(1, s)


def _fake_edge_loads(
    n: int, s: int, p: int, fake_total: int
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Accounting-only load inflation of the fake-edge padding (§4).

    Fake edges are spread uniformly over sources and part pairs; they are
    charged, never routed.  Returns per-node (send, recv) word arrays —
    the same numbers the tuple-era accounting accumulated per message.
    """
    if not fake_total:
        return None, None
    num_pairs = s * (s + 1) // 2
    per_pair = math.ceil(fake_total / max(1, num_pairs))
    per_source = math.ceil(fake_total / n)
    pairs = [(a, b) for a in range(s) for b in range(a, s)]
    mid_pair = pairs[len(pairs) // 2]
    extra_send = np.full(
        n, 2 * per_source * pair_recipient_count(s, p, *mid_pair), dtype=np.int64
    )
    # Node with new ID i+1 receives 2·per_pair fake words for every
    # unordered pair of its distinct parts: t(t+1)/2 pairs for t parts.
    digits = np.sort(radix_digit_table(s, p), axis=1)
    distinct = (np.diff(digits, axis=1) != 0).sum(axis=1) + 1
    extra_recv = np.zeros(n, dtype=np.int64)
    extra_recv[: s**p] = per_pair * distinct * (distinct + 1)
    return extra_send, extra_recv


def list_cliques_congested_clique(
    graph: Graph,
    p: int,
    params: Optional[AlgorithmParameters] = None,
    seed: int = 0,
    pad_fake_edges: bool = False,
    precomputed_table: Optional[np.ndarray] = None,
) -> ListingResult:
    """List all Kp of ``graph`` in the (simulated) CONGESTED CLIQUE.

    Round complexity: Θ̃(1 + m/n^{1+2/p}) (Theorem 1.3); the ledger holds
    the per-phase breakdown with the measured loads.
    ``params.execution.plane`` selects the layout (default ``"batch"``)
    and ``params.execution.resolve_executor()`` where the batch plane's
    listing runs; every choice produces identical results and identical
    ledger charges.

    ``precomputed_table`` is the streaming entry point: a ``(count, p)``
    table of *all* Kp of ``graph`` (e.g. a
    :meth:`~repro.stream.engine.StreamEngine.clique_table` maintained
    incrementally).  The routing of step 3 still executes and charges
    identically on either plane, but step 4's local listing is served
    from the table — each known clique is attributed directly to the
    node responsible for its part multiset, which is exactly the row the
    per-node learned-subgraph enumeration would have produced.
    """
    if params is None:
        params = AlgorithmParameters(p=p)
    elif params.p != p:
        raise ValueError(f"params.p={params.p} does not match p={p}")
    execution = params.execution
    plane = execution.plane
    rng = np.random.default_rng(seed)

    n = graph.num_nodes
    result = ListingResult(p=p, model="congested-clique", cliques=set())
    ledger = result.ledger
    if n == 0 or p > n:
        return result

    # One injector per run: the fault seam perturbs every routed pattern
    # and the router heals around it (docs/faults.md); None = unchanged.
    injector = execution.faults.injector() if execution.faults is not None else None
    clique_net = CongestedClique(
        n, cost_model=execution.cost_model, faults=injector,
        topology=execution.topology,
    )

    # -- Step 1: orientation.  The batch plane reads the CSR forward
    # adjacency (the same deterministic degeneracy orientation, as
    # arrays); the object plane materializes the per-node out-sets.
    if plane == "batch":
        csr = graph.to_csr()
        fptr, findices = csr.forward()
        out_degree = int(np.diff(fptr).max(initial=0))
        orientation = None
    else:
        orientation = degeneracy_orientation(graph)
        out_degree = orientation.max_out_degree
    orient_rounds = math.log2(max(2, n))
    ledger.charge(
        "orient",
        orient_rounds,
        makespan=makespan_for_rounds(execution.topology, orient_rounds),
        out_degree=out_degree,
    )

    s = num_parts_for_clique(n, p)
    partition = random_partition(n, s, rng)
    # One word from every part owner to everyone: the uniform broadcast
    # pattern, priced on the configured overlay.
    ledger.charge(
        "announce_parts",
        1.0,
        makespan=clique_net.broadcast_makespan(1),
        parts=s,
    )

    # Fake-edge padding (paper §4): ensure Lemma 2.7's conditions by
    # topping the edge count up to 20·n^{1+1/p}·log n.  The fake words
    # only inflate the charged loads; they are never routed or listed.
    m = graph.num_edges
    fake_total = 0
    if pad_fake_edges:
        target = math.ceil(20.0 * (n ** (1.0 + 1.0 / p)) * math.log2(max(2, n)))
        fake_total = max(0, target - m)
    extra_send, extra_recv = _fake_edge_loads(n, s, p, fake_total)

    # -- Step 3: every oriented edge fans out to all responsible nodes;
    # -- Step 4: each responsible node lists its learned subgraph.
    if precomputed_table is not None:
        if isinstance(precomputed_table, CliqueTable):
            precomputed_table = precomputed_table.rows
        precomputed_table = np.asarray(precomputed_table)
        if not np.issubdtype(precomputed_table.dtype, np.integer):
            precomputed_table = precomputed_table.astype(np.int64)
        if precomputed_table.ndim != 2 or precomputed_table.shape[1] != p:
            raise ValueError(
                f"precomputed_table must be a (count, {p}) array, got shape "
                f"{precomputed_table.shape}"
            )
    if plane == "batch":
        _route_and_list_arrays(
            result, clique_net, fptr, findices, partition.part_array(), s, p,
            extra_send, extra_recv, fake_total, precomputed_table,
            executor=execution.resolve_executor(),
        )
    else:
        _route_and_list_object(
            result, clique_net, graph, orientation, partition.part_of, s, p,
            extra_send, extra_recv, fake_total, precomputed_table,
        )
    if precomputed_table is not None:
        result.stats["precomputed_table"] = 1.0

    result.stats.update(
        {
            "n": float(n),
            "m": float(m),
            "parts": float(s),
            "fake_edges": float(fake_total),
            "theory_rounds": 1.0 + m / (n ** (1.0 + 2.0 / p)),
        }
    )
    if injector is not None and injector.active:
        recount_self_check(result, graph)
    return result


def _attribute_precomputed(
    result: ListingResult, table: np.ndarray, part_arr: np.ndarray, s: int
) -> None:
    """Step 4 from a table of all Kp — a maintained clique table (the
    streaming query path) or the one-mailbox listing of an intact
    delivery: each row is attributed to the responsible node of its
    part multiset — the same node whose learned-subgraph enumeration
    would have emitted it, so outputs and per-node attribution are
    identical to the listing tails on either plane."""
    if table.shape[0] == 0:
        return
    owners = responsible_index_array(part_arr[table], s)
    result.attribute_table(owners, table)


def _route_and_list_arrays(
    result: ListingResult,
    clique_net: CongestedClique,
    fptr: np.ndarray,
    findices: np.ndarray,
    part_arr: np.ndarray,
    s: int,
    p: int,
    extra_send: Optional[np.ndarray],
    extra_recv: Optional[np.ndarray],
    fake_total: int,
    precomputed_table: Optional[np.ndarray] = None,
    executor=None,
) -> None:
    """Factored edge distribution + owner-attributed listing (zero Python sets).

    One implementation serves every executor — the fan-out batch, the
    charge, the listing and the responsible-node attribution are
    shared, so inline, pool and cluster runs cannot drift apart:

    1. **charge** — the full §2.4.3 pattern, kept factored as a
       :class:`~repro.congest.batch.FanoutBatch` (edges sorted by part
       pair, one recipient list per pair), goes through
       :meth:`CongestedClique.charge_batch` (the ledger rows of
       :meth:`~CongestedClique.route_batch`), which prices it from the
       per-pair edge counts and returns it as the network delivered it;
    2. **list, intact delivery** (``batch.silent is None``, n within
       :data:`~repro.graphs.csr.BITSET_MAX_NODES`) — the delivered
       edges are listed as one mailbox, ``grouped_clique_tables`` over
       ``[0, m]`` inline or ``executor.fanout_tables`` on a pool or a
       cluster (which splits the lone mailbox into root-edge slices).
       Each row goes to the owner of its part multiset
       (:func:`_attribute_precomputed`).  That owner received every
       edge of the row and keeps it; no other node keeps it; and every
       Kp an owner lists from its mailbox is a Kp of the delivered
       edges.  So the rows and their attribution equal the per-owner
       listings below, and the rounds stay the full pattern's;
    3. **list, otherwise** — :func:`~repro.core.partition.owner_mailboxes`
       builds each of the C(s+p−1, p) owners' mailboxes as the
       concatenation of the edge slices of the part pairs its digits
       spell (an edge inside a part only when the owner holds that
       part twice), with the silently corrupted rows judged by the
       payload they arrived with
       (:func:`~repro.core.partition.owner_rows`).  The mailboxes,
       grouped by owner rank, are listed by one block-diagonal
       ``grouped_clique_tables`` pipeline inline or sharded by rank
       ranges through ``executor.fanout_tables``; ranks map back to
       node IDs and the responsible-node filter keeps exactly the rows
       whose part multiset is the lister's own digit sequence.
    """
    n = part_arr.size
    edge_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(fptr))
    edge_dst = findices
    batch = fanout_edges_by_pair(
        edge_src,
        edge_dst,
        pair_index_array(part_arr[edge_src], part_arr[edge_dst], s),
        pair_recipient_lists(s, p),
    )
    batch = clique_net.charge_batch(
        batch,
        result.ledger,
        "learn_edges",
        extra_send_words=extra_send,
        extra_recv_words=extra_recv,
        fake_edges=fake_total,
        parts=s,
    )
    if precomputed_table is not None:
        _attribute_precomputed(result, precomputed_table, part_arr, s)
        return
    list_tables = grouped_clique_tables if executor is None else executor.fanout_tables
    if batch.silent is None and n <= BITSET_MAX_NODES:
        lone = np.array([0, batch.payload.shape[0]], dtype=np.int64)
        _, table = list_tables(lone, batch.payload, p, assume_unique=True)
        _attribute_precomputed(result, table, part_arr, s)
        return
    owning, indptr, payload = owner_mailboxes(batch, part_arr, s, p)
    owners, table = list_tables(indptr, payload, p, assume_unique=True)
    if table.shape[0] == 0:
        return
    owners = owning[owners]
    mine = responsible_index_array(part_arr[table], s) == owners
    result.attribute_table(owners[mine], table[mine])


def _route_and_list_object(
    result: ListingResult,
    clique_net: CongestedClique,
    graph: Graph,
    orientation,
    part_of: Tuple[int, ...],
    s: int,
    p: int,
    extra_send: Optional[np.ndarray],
    extra_recv: Optional[np.ndarray],
    fake_total: int,
    precomputed_table: Optional[np.ndarray] = None,
) -> None:
    """Tuple-plane reference: one Python tuple per (edge, recipient)."""
    recipients = [r.tolist() for r in pair_recipient_lists(s, p)]
    messages: Dict[int, List[Tuple[int, Tuple[int, int]]]] = {}
    for v in graph.nodes():
        out = orientation.out_neighbors(v).tolist()
        if not out:
            continue
        batch: List[Tuple[int, Tuple[int, int]]] = []
        for w in out:
            a, b = part_of[v], part_of[w]
            if a > b:
                a, b = b, a
            for dst in recipients[a * s - (a * (a - 1)) // 2 + (b - a)]:
                batch.append((dst, (v, w)))
        messages[v] = batch
    delivered = clique_net.route(
        messages,
        result.ledger,
        "learn_edges",
        words_per_message=2,
        extra_send_words=extra_send,
        extra_recv_words=extra_recv,
        fake_edges=fake_total,
        parts=s,
    )
    if precomputed_table is not None:
        _attribute_precomputed(
            result, precomputed_table, np.asarray(part_of, dtype=np.int64), s
        )
        return
    for node, payloads in delivered.items():
        if not payloads:
            continue
        learned = Graph(graph.num_nodes, payloads)
        for clique in enumerate_cliques(learned, p, backend="python"):
            multiset = [part_of[u] for u in sorted(clique)]
            if responsible_new_id(multiset, s, p) - 1 == node:
                result.attribute(node, clique)
