"""Random vertex partition and radix part assignment (§2.4.3, Lemma 2.7).

Three pieces:

- :func:`random_partition` — every graph node joins one of ``s`` parts
  uniformly at random.  Lemma 2.7 (with a union bound over part pairs)
  gives that the number of edges between any two parts is O(m/s²) w.h.p.;
  :func:`pair_edge_counts` measures it and the tests/benchmarks check the
  bound.
- :func:`radix_assignment` — cluster node with new ID i takes the p parts
  spelled by the base-s digits of i−1.  Because s = ⌊k^{1/p}⌋, all s^p
  digit sequences are covered by the k IDs, so *every multiset of ≤ p
  parts is some node's responsibility* — the completeness backbone of the
  in-cluster listing.  :func:`owner_indices` names the IDs that keep
  cliques (ascending digits), :func:`owner_rows` says which delivered
  fan-out rows they can use, and :func:`owner_mailboxes` gathers those
  rows per owner straight from a factored fan-out.
- :func:`sample_induced_edges` — the literal Lemma 2.7 experiment
  (independent q-sampling of vertices), used by the E7 benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.congest.batch import FanoutBatch
from repro.graphs.graph import Edge, Graph

PartPair = Tuple[int, int]


@dataclass(frozen=True)
class VertexPartition:
    """Assignment of every graph node to one of ``num_parts`` parts."""

    num_parts: int
    part_of: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_parts < 1:
            raise ValueError("partition needs at least one part")
        bad = [p for p in self.part_of if not (0 <= p < self.num_parts)]
        if bad:
            raise ValueError(f"part labels out of range: {bad[:3]}")

    @property
    def n(self) -> int:
        return len(self.part_of)

    def members(self, part: int) -> List[int]:
        return [v for v, p in enumerate(self.part_of) if p == part]

    def pair_of_edge(self, u: int, v: int) -> PartPair:
        """The (unordered) part pair an edge falls between."""
        a, b = self.part_of[u], self.part_of[v]
        return (a, b) if a <= b else (b, a)

    def part_array(self) -> np.ndarray:
        """Part labels as one ``int64`` array (the batch plane's view)."""
        return np.asarray(self.part_of, dtype=np.int64)


def random_partition(
    n: int, num_parts: int, rng: np.random.Generator
) -> VertexPartition:
    """Uniform independent part choice for each of the n nodes."""
    labels = rng.integers(0, num_parts, size=n)
    return VertexPartition(num_parts=num_parts, part_of=tuple(int(x) for x in labels))


def pair_edge_counts(
    edges: Iterable[Edge], partition: VertexPartition
) -> Dict[PartPair, int]:
    """Number of edges between every (unordered) part pair."""
    counts: Dict[PartPair, int] = {}
    for u, v in edges:
        pair = partition.pair_of_edge(u, v)
        counts[pair] = counts.get(pair, 0) + 1
    return counts


def max_pair_load(edges: Iterable[Edge], partition: VertexPartition) -> int:
    """max over part pairs of the edge count (the Lemma 2.7 quantity)."""
    counts = pair_edge_counts(edges, partition)
    return max(counts.values(), default=0)


# ----------------------------------------------------------------------
# Radix part assignment (footnote 7 of the paper)
# ----------------------------------------------------------------------
def radix_assignment(new_id: int, s: int, p: int) -> Optional[Tuple[int, ...]]:
    """Parts assigned to the cluster node with new ID ``new_id`` (1-based).

    The node views the base-s representation of ``new_id - 1`` with p
    digits; digit j is its j-th assigned part.  IDs beyond s^p get no
    assignment (``None``) — those nodes are idle in the listing step.
    """
    if new_id < 1:
        raise ValueError(f"new IDs are 1-based, got {new_id}")
    index = new_id - 1
    if index >= s**p:
        return None
    digits: List[int] = []
    for _ in range(p):
        digits.append(index % s)
        index //= s
    return tuple(digits)


def responsible_new_id(part_multiset: Sequence[int], s: int, p: int) -> int:
    """The canonical new ID responsible for a multiset of ≤ p parts.

    Pads the multiset to length p by repeating its last element, sorts it,
    and reads the digits as a base-s number.  Because
    :func:`radix_assignment` enumerates *all* digit sequences, the
    returned ID's assignment contains every part of the multiset.
    """
    if not part_multiset:
        raise ValueError("empty part multiset")
    if len(part_multiset) > p:
        raise ValueError(f"multiset larger than p={p}: {part_multiset}")
    padded = sorted(part_multiset) + [max(part_multiset)] * (p - len(part_multiset))
    padded.sort()
    index = 0
    for digit in reversed(padded):
        index = index * s + digit
    return index + 1


def radix_digit_table(s: int, p: int) -> np.ndarray:
    """Digit matrix of every new ID: row ``i`` holds the p base-s digits
    of index ``i`` (new ID ``i + 1``), least-significant first.

    Row ``i`` equals ``radix_assignment(i + 1, s, p)`` — the vectorized
    form the batch routing plane indexes instead of looping.
    """
    index = np.arange(s**p, dtype=np.int64)
    digits = np.empty((s**p, p), dtype=np.int64)
    for j in range(p):
        digits[:, j] = index % s
        index //= s
    return digits


def owner_indices(s: int, p: int) -> np.ndarray:
    """The 0-based new-ID indices that own a part multiset, ascending.

    Index i owns one iff its digits ascend (least-significant first), i.e.
    it is :func:`responsible_index_array` of its own digits.  There are
    C(s+p−1, p) of them, one per multiset of p parts; every other index
    learns edges in §2.4.3 but can never keep a Kp.
    """
    digits = radix_digit_table(s, p)
    return np.flatnonzero((np.diff(digits, axis=1) >= 0).all(axis=1))


def owner_rows(
    dst: np.ndarray, edges: np.ndarray, part_arr: np.ndarray, s: int, p: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of a §2.4.3 fan-out that can reach a kept Kp.

    ``dst`` are the recipients (0-based new-ID indices below s^p) and
    ``edges`` the ``(rows, 2)`` edge endpoints as delivered.  A row is
    kept iff its recipient is an owner (:func:`owner_indices`) and the
    edge does not lie inside a part the owner's digits hold only once —
    a Kp using such an edge has that part twice, so its multiset is not
    the owner's.  Returns ``(owners, rows, rank)``: the owning indices
    (:func:`owner_indices`), the kept row indices in batch order, and
    each kept row's recipient as a rank into ``owners``.

    This is the keep rule for rows judged by their delivered payload;
    :func:`owner_mailboxes` applies it to the silently corrupted rows of
    a factored fan-out.
    """
    owners = owner_indices(s, p)
    lookup = np.full(s**p, -1, dtype=np.int64)
    lookup[owners] = np.arange(owners.size, dtype=np.int64)
    rank = lookup[dst]
    rows = np.flatnonzero(rank >= 0)
    rank = rank[rows]
    ends = part_arr[edges[rows]]
    # repeated[r, a] <=> owner r's (ascending) digits hold part a twice.
    digits = radix_digit_table(s, p)[owners]
    r, j = np.nonzero(digits[:, 1:] == digits[:, :-1])
    repeated = np.zeros((owners.size, s), dtype=bool)
    repeated[r, digits[r, j]] = True
    keep = (ends[:, 0] != ends[:, 1]) | repeated[rank, ends[:, 0]]
    return owners, rows[keep], rank[keep]


def owner_mailboxes(
    batch: FanoutBatch, part_arr: np.ndarray, s: int, p: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every owner's mailbox of a charged §2.4.3 fan-out, gathered by pair.

    ``batch`` is :func:`~repro.congest.batch.fanout_edges_by_pair` over
    :func:`pair_recipient_lists`\\ ``(s, p)`` (pair index
    :func:`pair_index_array`), as the network delivered it.  Owner
    :func:`owner_indices`\\ ``[r]`` keeps the part pairs its digits spell
    at two positions i < j: both parts are its, and a pair inside one
    part only when it holds that part twice — the rows
    :func:`owner_rows` keeps.  Its mailbox is those pairs' edge slices,
    pairs ascending, then edges: the order ``deliver`` gives the
    ``owner_rows`` output of the materialized batch, without building it.

    Silently corrupted rows (``batch.silent``) are judged by the payload
    they arrived with, through :func:`owner_rows`: an owner's row that
    arrived corrupted leaves its slice, and every corrupted row
    addressed to an owner that ``owner_rows`` keeps takes its place in
    pattern order.

    Returns ``(owners, indptr, payload)``: owner ``owners[r]``'s mailbox
    is ``payload[indptr[r]:indptr[r + 1]]``.
    """
    owners = owner_indices(s, p)
    digits = radix_digit_table(s, p)[owners]
    i, j = np.triu_indices(p, 1)
    held = np.sort(pair_index_array(digits[:, i], digits[:, j], s), axis=1)
    fresh = np.ones(held.shape, dtype=bool)
    fresh[:, 1:] = held[:, 1:] != held[:, :-1]
    rank, col = np.nonzero(fresh)
    pair = held[rank, col]
    start = batch.indptr[pair]
    length = batch.indptr[pair + 1] - start
    seg = np.zeros(length.size + 1, dtype=np.int64)
    np.cumsum(length, out=seg[1:])
    edge = np.arange(seg[-1], dtype=np.int64) + np.repeat(start - seg[:-1], length)
    indptr = seg[np.searchsorted(rank, np.arange(owners.size + 1))]
    if batch.silent is None:
        return owners, indptr, batch.payload[edge]

    # Pattern order inside one mailbox is edge order (one copy per edge),
    # so (rank, edge) orders the merged rows.
    edges = batch.payload.shape[0]
    rank = np.repeat(np.arange(owners.size, dtype=np.int64), np.diff(indptr))
    hit_edge, hit_dst = batch.locate(batch.silent)
    intact = ~np.isin(owners[rank] * edges + edge, hit_dst * edges + hit_edge)
    _, rows, hit_rank = owner_rows(hit_dst, batch.silent_payload, part_arr, s, p)
    rank = np.concatenate((rank[intact], hit_rank))
    order = np.argsort(
        rank * edges + np.concatenate((edge[intact], hit_edge[rows])), kind="stable"
    )
    payload = np.concatenate((batch.payload[edge[intact]], batch.silent_payload[rows]))
    indptr = np.zeros(owners.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(rank, minlength=owners.size), out=indptr[1:])
    return owners, indptr, payload[order]


def pair_index_array(a: np.ndarray, b: np.ndarray, s: int) -> np.ndarray:
    """Dense index of the unordered part pair (a, b) in ``[0, s(s+1)/2)``.

    Pairs are ordered ``(0,0), (0,1), ..., (0,s-1), (1,1), ...`` — the
    same enumeration :func:`pair_recipient_lists` uses, so an edge's pair
    index selects its recipient array directly.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return lo * s - (lo * (lo - 1)) // 2 + (hi - lo)


def num_part_pairs(s: int) -> int:
    """Number of unordered part pairs, the range of the pair index."""
    return s * (s + 1) // 2


def pair_recipient_lists(s: int, p: int) -> List[np.ndarray]:
    """For every unordered part pair, the (0-based) new-ID indices
    responsible for it — all IDs whose digit multiset contains both parts.

    ``lists[pair_index_array(a, b, s)]`` has exactly
    :func:`pair_recipient_count`\\ ``(s, p, a, b)`` entries (the
    inclusion–exclusion count, realized); this is the destination side of
    the §2.4.3 fan-out, materialized once per routing step and reused for
    every edge via ``np.repeat``/``np.tile``.
    """
    digits = radix_digit_table(s, p)
    # membership[i, c] <=> part c appears among the digits of new ID i+1.
    membership = (digits[:, :, None] == np.arange(s, dtype=np.int64)).any(axis=1)
    lists: List[np.ndarray] = []
    for a in range(s):
        for b in range(a, s):
            lists.append(np.nonzero(membership[:, a] & membership[:, b])[0])
    return lists


def responsible_index_array(
    part_digits: np.ndarray, s: int
) -> np.ndarray:
    """Vectorized :func:`responsible_new_id` minus one, over clique rows.

    ``part_digits`` is a ``(rows, p)`` matrix of part labels in
    ``[0, s)`` (one row per clique, any order).  Each row's labels,
    coded as Σ d_j·s^j, are its index into :func:`radix_digit_table`;
    one lookup into that table's rows, each sorted ascending and read
    back as a base-s number least-significant-digit-first (the scalar
    function's ``index = index*s + digit`` over the reversed sorted
    multiset), yields the 0-based responsible index.  The table has
    s^p entries, at most the k nodes the parts are assigned to (s =
    ⌊k^{1/p}⌋), and no clique row is ever sorted.
    """
    part_digits = np.asarray(part_digits, dtype=np.int64)
    p = part_digits.shape[1]
    place = s ** np.arange(p, dtype=np.int64)
    responsible = np.sort(radix_digit_table(s, p), axis=1) @ place
    return responsible[part_digits @ place]


def pair_recipient_count(s: int, p: int, a: int, b: int) -> int:
    """How many new IDs have both parts a and b in their assignment.

    Inclusion–exclusion over the s^p digit sequences:
    - a == b: s^p − (s−1)^p sequences contain digit a;
    - a != b: s^p − 2(s−1)^p + (s−2)^p sequences contain both digits.

    This is the paper's O(p² k^{1−2/p}) bound, computed exactly; it drives
    the send-side load accounting of the sparsity-aware listing.
    """
    if not (0 <= a < s and 0 <= b < s):
        raise ValueError(f"parts ({a}, {b}) out of range [0, {s})")
    if a == b:
        return s**p - (s - 1) ** p
    return s**p - 2 * (s - 1) ** p + max(0, s - 2) ** p


# ----------------------------------------------------------------------
# Lemma 2.7 — the sampling experiment itself
# ----------------------------------------------------------------------
def sample_induced_edges(
    graph: Graph, q: float, rng: np.random.Generator
) -> Tuple[Set[int], int]:
    """Sample each vertex independently with probability q.

    Returns (sampled vertex set, number of induced edges).  Lemma 2.7:
    if Δ ≤ m·q/(20 log n) and q²m ≥ 400 log² n, then the induced edge
    count is ≤ 6q²m with probability ≥ 1 − 10(log n)/n⁵.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"sampling probability must be in [0,1], got {q}")
    chosen = {v for v in graph.nodes() if rng.random() < q}
    induced = sum(1 for u, v in graph.edges() if u in chosen and v in chosen)
    return chosen, induced


def lemma_2_7_conditions(graph: Graph, q: float) -> bool:
    """Whether the preconditions of Lemma 2.7 hold for (graph, q)."""
    n = max(2, graph.num_nodes)
    m = graph.num_edges
    log_n = math.log2(n)
    max_deg = max((graph.degree(v) for v in graph.nodes()), default=0)
    return max_deg <= m * q / (20 * log_n) and q * q * m >= 400 * log_n * log_n


def lemma_2_7_bound(graph: Graph, q: float) -> float:
    """The 6q²m̄ bound of Lemma 2.7."""
    return 6.0 * q * q * graph.num_edges
