"""Immutable CSR graph snapshot and vectorized listing kernels.

Every :class:`~repro.graphs.graph.Graph` built from edges *is* a CSR
snapshot until something mutates it: its constructor sorts the edges
into ``indptr``/``indices`` once, and the neighbour sets the
pure-Python algorithms read are built from those arrays on demand.  This
module holds the snapshot type and the kernels that read it, which keep
the sequential hot paths — ground-truth enumeration, degeneracy
orientation, triangle/K4 counting — out of per-node Python loops:

- :class:`CSRGraph` — an immutable compressed-sparse-row snapshot
  (read-only ``indptr``/``indices`` numpy arrays, neighbor rows sorted
  by node id) obtained via :meth:`Graph.to_csr`;
- :func:`degeneracy_order` — the peeling order under the library-wide
  deterministic rule (*lowest id among minimum remaining degree*), shared
  bit-for-bit with the pure-Python bucket queue in
  :mod:`repro.graphs.orientation` so the two backends are differentially
  testable;
- :func:`forward_adjacency` — out-neighborhoods under that order, again
  in CSR form;
- :func:`enumerate_cliques_csr` / :func:`count_cliques_csr` /
  :func:`triangle_count_csr` — Kp kernels over the forward adjacency.

Kernel strategy
---------------
For ``n`` up to :data:`BITSET_MAX_NODES` every forward neighborhood is
packed into a bitset row (``uint64`` words whose *byte* layout is
little-endian bit order: node ``j`` lives in byte ``j >> 3``, bit
``j & 7``).  Cliques are grown level-synchronously: level ``k`` holds a
table of all position-ordered K\\ :sub:`k` prefixes plus one
candidate-bitset row per prefix, and one vectorized 64-bit AND narrows
every candidate set at once.  Members are extracted word-first: one
``flatnonzero`` over the ``uint64`` words, a popcount of only the live
words, then a lowest-set-bit peel of the words still holding bits
(:func:`_expand_members`), so work scales with the number of set bits,
not with ``n``.  Prefix tables and candidate rows grow by
``np.take(..., axis=0)`` row gathers.  Counting replaces the last level
with a cache-blocked 64-bit popcount reduction and never materializes
leaf objects.  Beyond
``BITSET_MAX_NODES`` the kernels fall back to an explicit-stack search
over sorted index arrays (:func:`intersect_sorted`), which needs no
quadratic bit matrix.

Caching
-------
A ``CSRGraph`` is a *frozen snapshot*: no kernel mutates it, so derived
structures are memoized on the instance — the degeneracy order, the
forward adjacency, the bitset rows, the per-``p`` raw clique tables,
and the per-``p`` canonical :class:`~repro.graphs.table.CliqueTable`
results (whose frozenset materialization is itself cached at most
once).  Repeated ground-truth queries against the same snapshot (the
verification pipeline does this constantly) share one immutable table
and one cached frozenset instead of re-enumerating or copying;
:meth:`Graph.to_csr` completes the chain: a graph keeps its snapshot
until an edge mutation drops it.
"""

from __future__ import annotations

import itertools
import sys
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.keys import unique_sorted
from repro.graphs.table import CliqueTable

Clique = FrozenSet[int]

#: Above this node count the bitset rows (≈ n²/8 bytes) are no longer
#: worth their memory; the kernels switch to sorted-array intersections.
#: Raised from 8192 when the rows moved from uint8 to uint64 words —
#: the wider ALU path keeps the quadratic matrix worthwhile longer.
BITSET_MAX_NODES = 16384

#: Root edges processed per batch in the level pipeline — bounds the
#: peak size of one candidate-row matrix to ``CHUNK_EDGES * n / 8`` bytes.
CHUNK_EDGES = 16384

#: Popcount reductions walk the candidate matrix in blocks of at most
#: this many bytes so the per-block count array stays cache-resident.
POPCOUNT_BLOCK_BYTES = 1 << 22

#: Word byte order of the host.  Node j is bit j & 63 of word j >> 6, so
#: on little-endian hosts it is also byte j >> 3, bit j & 7 of the row's
#: ``uint8`` view; big-endian hosts permute bytes within each word
#: (:func:`_byte_columns`).  :func:`_expand_members` reads word *values*
#: and needs no such mapping.
_LITTLE = sys.byteorder == "little"

_ONE = np.uint64(1)
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_SWAR_M1 = np.uint64(0x5555555555555555)
_SWAR_M2 = np.uint64(0x3333333333333333)
_SWAR_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_SWAR_H01 = np.uint64(0x0101010101010101)


def _popcount_swar(a: np.ndarray) -> np.ndarray:
    """Per-element set-bit counts without ``np.bitwise_count`` (numpy 1.x):
    a byte table for ``uint8`` input, else 64-bit SWAR (Hacker's Delight
    5-2), which returns ``uint64`` counts."""
    if a.dtype == np.uint8:
        return _POPCOUNT_TABLE[a]
    x = a - ((a >> _ONE) & _SWAR_M1)
    x = (x & _SWAR_M2) + ((x >> np.uint64(2)) & _SWAR_M2)
    x = (x + (x >> np.uint64(4))) & _SWAR_M4
    return (x * _SWAR_H01) >> np.uint64(56)


#: Per-element popcount: ``np.bitwise_count`` (numpy >= 2.0, ``uint8``
#: counts) where it exists.  Callers cast counts before arithmetic that
#: must stay signed, since the fallback's are ``uint64``.
_popcount = getattr(np, "bitwise_count", _popcount_swar)


def _popcount_sum(cand: np.ndarray) -> int:
    """Total set bits of a 2-D bitset matrix, cache-blocked.

    Processes at most :data:`POPCOUNT_BLOCK_BYTES` per slice so the
    intermediate per-word count array never spills to main memory on
    large candidate matrices.
    """
    if cand.size == 0:
        return 0
    row_bytes = cand.shape[1] * cand.itemsize
    step = max(1, POPCOUNT_BLOCK_BYTES // max(1, row_bytes))
    total = 0
    for lo in range(0, cand.shape[0], step):
        total += int(_popcount(cand[lo : lo + step]).sum(dtype=np.int64))
    return total


class CSRGraph:
    """Immutable CSR snapshot of an undirected graph.

    ``indices[indptr[v]:indptr[v+1]]`` is the sorted neighbor array of
    node ``v``; every undirected edge appears in both endpoint rows.
    Construct via :meth:`from_graph` (or :meth:`Graph.to_csr`).
    """

    __slots__ = (
        "indptr",
        "indices",
        "_order",
        "_forward",
        "_bits",
        "_abits",
        "_tables",
        "_results",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size == 0 or self.indptr[0] != 0:
            raise ValueError("indptr must be 1-D, non-empty and start at 0")
        if self.indptr[-1] != self.indices.size:
            raise ValueError("indptr[-1] must equal len(indices)")
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False
        self._order: Optional[np.ndarray] = None
        self._forward: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._bits: Optional[np.ndarray] = None
        self._abits: Optional[np.ndarray] = None
        self._tables: Dict[int, np.ndarray] = {}
        self._results: Dict[int, CliqueTable] = {}

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot a :class:`Graph` (neighbor rows sorted by node id).

        A graph that has not been mutated since it was built already
        holds its arrays: the new snapshot wraps them (read-only, no
        copy, no memoized tables).  Only a mutated graph's neighbour
        sets are walked.
        """
        held = graph._csr
        if held is not None:
            return cls(held.indptr, held.indices)
        n = graph.num_nodes
        rows = [graph.neighbors(v) for v in range(n)]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=n), out=indptr[1:])
        flat = np.fromiter(
            itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1])
        )
        # Rows are contiguous and ascend, so one sort of row·n + id keys
        # sorts every row in place.
        base = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr))
        return cls(indptr, np.sort(base + flat) - base)

    def to_graph(self) -> Graph:
        """Round-trip back to a mutable :class:`Graph` (array-built: it
        holds an equal snapshot and no neighbour sets)."""
        return Graph.from_edge_array(self.num_nodes, self.edge_table())

    def edge_table(self) -> np.ndarray:
        """All undirected edges as a ``(m, 2)`` canonical (u < v) table.

        Read straight off ``indptr``/``indices`` — unlike the forward
        edge list this needs no degeneracy order.
        """
        n = self.num_nodes
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        keep = rows < self.indices
        table = np.empty((int(keep.sum()), 2), dtype=np.int64)
        table[:, 0] = rows[keep]
        table[:, 1] = self.indices[keep]
        return table

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (a view into ``indices``)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbor_pairs(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(node, neighbor)`` columns of the rows of ``nodes``,
        concatenated in the order ``nodes`` lists them."""
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.indptr[nodes]
        lengths = self.indptr[nodes + 1] - starts
        ends = np.cumsum(lengths)
        position = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
        position += np.repeat(starts - (ends - lengths), lengths)
        return np.repeat(nodes, lengths), self.indices[position]

    def degrees(self) -> np.ndarray:
        """All degrees as one array (``degrees()[v] == degree(v)``)."""
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            return False
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and row[i] == v

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_nodes}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # Cached derived structures
    # ------------------------------------------------------------------
    def order(self) -> np.ndarray:
        """Cached deterministic degeneracy (peeling) order."""
        if self._order is None:
            self._order = degeneracy_order(self)
        return self._order

    def forward(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(fptr, findices)`` forward adjacency under :meth:`order`."""
        if self._forward is None:
            self._forward = forward_adjacency(self, self.order())
        return self._forward

    def forward_bits(self) -> Optional[np.ndarray]:
        """Cached bitset rows of the forward adjacency, or ``None`` when
        ``n`` exceeds :data:`BITSET_MAX_NODES`."""
        if self.num_nodes > BITSET_MAX_NODES:
            return None
        if self._bits is None:
            fptr, findices = self.forward()
            self._bits = _pack_bitset_rows(fptr, findices, self.num_nodes)
        return self._bits

    def adjacency_bits(self) -> Optional[np.ndarray]:
        """Cached bitset rows of the *full* (undirected) adjacency, or
        ``None`` when ``n`` exceeds :data:`BITSET_MAX_NODES`.

        Unlike :meth:`forward_bits` these rows are symmetric (bit ``u``
        of row ``v`` iff ``{u, v}`` is an edge) and need no degeneracy
        order — the streaming delta kernels intersect them directly to
        get common neighborhoods ``N(u) ∩ N(v)``.  Treat the returned
        matrix as immutable; overlays copy it before mutating
        (:class:`repro.graphs.overlay.CSROverlay`).
        """
        if self.num_nodes > BITSET_MAX_NODES:
            return None
        if self._abits is None:
            self._abits = _pack_bitset_rows(self.indptr, self.indices, self.num_nodes)
        return self._abits

    def clique_table(self, p: int) -> np.ndarray:
        """Cached ``(count, p)`` array of all position-ordered Kp rows."""
        if p < 3:
            raise ValueError("clique tables exist for p >= 3 only")
        if p not in self._tables:
            bits = self.forward_bits()
            if bits is not None:
                self._tables[p] = _clique_table_bitset(self, p)
            else:
                self._tables[p] = _clique_table_sorted(self, p)
        return self._tables[p]

    def clique_result(self, p: int) -> CliqueTable:
        """Cached canonical :class:`CliqueTable` of all Kp.

        This is the snapshot's *shared* result object: every caller of
        a given ``p`` receives the same immutable table, so its one
        cached frozenset is shared too.  Raw :meth:`clique_table` rows
        are position-ordered; this canonicalizes them once (members
        ascending within rows, rows lex-sorted, uint32).
        """
        if p < 2:
            raise ValueError(f"clique results exist for p >= 2, got {p}")
        result = self._results.get(p)
        if result is None:
            if p == 2:
                result = CliqueTable.from_rows(self.edge_table(), p=2)
            else:
                result = CliqueTable.from_rows(self.clique_table(p), p=p)
            self._results[p] = result
        return result


# ----------------------------------------------------------------------
# Orientation kernels
# ----------------------------------------------------------------------
def degeneracy_order(csr: CSRGraph) -> np.ndarray:
    """Deterministic degeneracy (peeling) order.

    Repeatedly removes the *lowest-id node among those of minimum
    remaining degree*.  This tie-break is the library-wide contract: the
    pure-Python bucket queue in
    :func:`repro.graphs.orientation.degeneracy_orientation` implements
    the identical rule, so both backends produce the same orientation
    and the differential tests can compare them exactly.

    Implementation note: one ``argmin`` scan per removal — O(n²) scalar
    work but a single vectorized pass per step, comfortably fast through
    n ≈ 50k, which covers every workload the sweep runner targets.
    """
    n = csr.num_nodes
    order = np.empty(n, dtype=np.int64)
    if n == 0:
        return order
    work = csr.degrees().astype(np.int64)
    removed = np.zeros(n, dtype=bool)
    sentinel = n + 1  # larger than any live degree
    for i in range(n):
        v = int(np.argmin(work))  # argmin ties break to the lowest id
        order[i] = v
        work[v] = sentinel
        removed[v] = True
        nbrs = csr.neighbors(v)
        alive = nbrs[~removed[nbrs]]
        work[alive] -= 1
    return order


def forward_adjacency(
    csr: CSRGraph, order: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Out-neighborhoods under ``order``, as a CSR pair ``(fptr, findices)``.

    Each edge is kept only in the row of its earlier-in-order endpoint;
    rows stay sorted by node id (the intersection kernels rely on this).
    ``max(diff(fptr))`` is the degeneracy when ``order`` is a degeneracy
    order.
    """
    n = csr.num_nodes
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    keep = position[rows] < position[csr.indices]
    frows = rows[keep]
    findices = csr.indices[keep]
    fptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(frows, minlength=n), out=fptr[1:])
    return fptr, findices


def forward_out_degrees(csr: CSRGraph) -> np.ndarray:
    """Per-node out-degrees of the degeneracy orientation."""
    fptr, _ = csr.forward()
    return np.diff(fptr)


def degeneracy_csr(csr: CSRGraph) -> int:
    """Degeneracy = max out-degree of the degeneracy orientation."""
    if csr.num_nodes == 0:
        return 0
    return int(forward_out_degrees(csr).max(initial=0))


# ----------------------------------------------------------------------
# Bitset helpers (uint64 word rows; *byte* layout is little-endian bit
# order: node j -> byte j >> 3, bit j & 7 — so the uint8 view of a row
# is exactly the pre-uint64 packed representation)
# ----------------------------------------------------------------------
def _byte_columns(cols: np.ndarray) -> np.ndarray:
    """Map node byte index ``j >> 3`` to the column of the uint8 *view*
    of the uint64 matrix that holds it."""
    byte = cols >> 3
    if _LITTLE:
        return byte
    # Big-endian words store their low byte last: flip within each word.
    return (byte & ~np.int64(7)) | (7 - (byte & 7))  # pragma: no cover


def _scatter_bits(
    bits: np.ndarray, rows: np.ndarray, cols: np.ndarray, clear: bool = False
) -> None:
    """Set (or clear) node bits in a uint64 bitset matrix in place.

    Scatters through a ``uint8`` view: an unbuffered ``bitwise_or.at``
    on single bytes, which tolerates duplicate (row, node) pairs.
    """
    view8 = bits.view(np.uint8)
    masks = np.uint8(1) << (cols & 7).astype(np.uint8)
    where = (rows, _byte_columns(cols))
    if clear:
        np.bitwise_and.at(view8, where, np.invert(masks))
    else:
        np.bitwise_or.at(view8, where, masks)


def _pack_pairs(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """An ``n``-node bitset matrix with bit ``cols[i]`` of row ``rows[i]`` set."""
    width = max(1, (n + 63) // 64)
    bits = np.zeros((max(1, n), width), dtype=np.uint64)
    _scatter_bits(bits, rows, cols)
    return bits


def _pack_bitset_rows(fptr: np.ndarray, findices: np.ndarray, n: int) -> np.ndarray:
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(fptr))
    return _pack_pairs(rows, findices, n)


#: Public name for the row packer — the shard executor packs bitsets on
#: the parent once and ships them to workers as one shared block.
pack_bitset_rows = _pack_bitset_rows


def _test_bits(bits: np.ndarray, rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Bit ``nodes[i]`` of row ``rows[i]`` of a uint64 bitset matrix, read
    as one byte of the flat ``uint8`` view (cheaper than a word gather)."""
    view8 = bits.view(np.uint8)
    byte = view8.ravel()[rows * view8.shape[1] + _byte_columns(nodes)]
    return ((byte >> (nodes & 7).astype(np.uint8)) & 1) != 0


def _expand_members(cand: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Set bits of a stack of uint64 bitset rows, as ``(row_index, node_id)``.

    Word-first lowest-set-bit peel: one ``flatnonzero`` finds the live
    (nonzero) words and only those are popcounted, so cost tracks the
    number of set bits, not ``n``.  Word ``i``'s bits go to output slots
    ``start[i] .. start[i] + count[i] - 1`` (``start`` is the exclusive
    ``cumsum`` of the counts).  The live words are ordered once by
    descending popcount (a stable argsort of ``uint8`` counts is a radix
    sort), so the words still holding bits are always a prefix; each
    round writes the lowest set bit of every such word,
    ``popcount(w ^ (w - 1)) - 1``, into its next slot and clears it with
    ``w &= w - 1`` — as many rounds as the fullest word has bits.  Word
    *values* are peeled (a ``>u8`` stack converts to native), so node
    ``j`` is bit ``j & 63`` of word ``j >> 6`` on either byte order.
    Within one row the returned node ids ascend, and rows appear in
    ascending order — the level pipeline relies on this to keep prefix
    groups contiguous.
    """
    width = cand.shape[1]
    flat = cand.ravel()
    live = np.flatnonzero(flat)
    words = flat[live].astype(np.uint64, copy=False)
    counts = _popcount(words)
    order = np.argsort(counts, kind="stable")[::-1]
    counts = counts.astype(np.intp)
    row, col = np.divmod(live, width)
    rows = np.repeat(row, counts)
    slot = (np.cumsum(counts) - counts)[order]
    base = col[order] * 64 - 1
    words = words[order]
    # holding[r]: how many words still hold a bit in round r.
    holding = live.size - np.cumsum(np.bincount(counts))
    nodes = np.empty(rows.size, dtype=np.intp)
    for k in holding[:-1].tolist():
        w = words[:k]
        below = w - _ONE
        nodes[slot[:k]] = base[:k] + _popcount(w ^ below).astype(np.intp)
        slot[:k] += 1
        w &= below
    return rows, nodes


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique id arrays (== set ``&``)."""
    return np.intersect1d(a, b, assume_unique=True)


# ----------------------------------------------------------------------
# Level-synchronous clique pipeline (bitset strategy)
# ----------------------------------------------------------------------
def _forward_edge_pairs(fptr: np.ndarray, findices: np.ndarray) -> np.ndarray:
    """Forward edges of an arbitrary forward adjacency, as (src, dst) rows."""
    n = fptr.size - 1
    table = np.empty((findices.size, 2), dtype=np.int64)
    table[:, 0] = np.repeat(np.arange(n, dtype=np.int64), np.diff(fptr))
    table[:, 1] = findices
    return table


def table_from_forward_bits(
    fptr: np.ndarray,
    findices: np.ndarray,
    bits: np.ndarray,
    p: int,
    start: int = 0,
    stop: Optional[int] = None,
    goal_bits: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The Kp table via the level pipeline over candidate bitset rows.

    Works for *any* acyclic forward adjacency (a degeneracy order on the
    memoized snapshot path, the identity order on the learned-subgraph
    path): the pipeline only needs each clique to appear exactly once as
    a position-ordered prefix chain, which any total order guarantees.

    ``start``/``stop`` restrict the pipeline to a slice of the *root
    edges* (rows of the forward edge table).  Root-edge slices partition
    the output — every Kp is discovered from exactly one root edge (its
    two earliest members) — so the shard executor can fan disjoint
    slices across workers and concatenate: the union equals the full
    table, with no duplicates and no misses.

    ``goal_bits`` (same shape as ``bits``, oriented like it: a goal pair
    sets the later endpoint's bit in the earlier endpoint's row) keeps
    only the cliques with a goal pair among their edges.  Each partial
    row carries ``touched`` (a goal pair seen so far) and ``reach`` (the
    OR of its members' goal rows); a new member ``w`` touches the row
    iff ``reach`` holds bit ``w``, because every earlier member precedes
    ``w``.  The last level masks an untouched row's candidates with its
    ``reach``, so only touched rows are ever built.  Rows come out in
    the unfiltered table's order.
    """
    edges = _forward_edge_pairs(fptr, findices)[start:stop]
    out: List[np.ndarray] = []
    for lo in range(0, edges.shape[0], CHUNK_EDGES):
        u, v = edges[lo : lo + CHUNK_EDGES].T
        # Row gathers go through np.take(axis=0), which copies whole rows
        # and beats fancy indexing ~3x on these few-word rows.  The table
        # is p wide from the root on and level ``size`` fills column
        # ``size - 1``, so a grow is one contiguous gather: writing k
        # gathered columns into a wider table costs ~4x the gather.
        table = np.empty((u.size, p), dtype=np.int64)
        table[:, 0] = u
        table[:, 1] = v
        cand = np.take(bits, u, axis=0) & np.take(bits, v, axis=0)
        if goal_bits is not None:
            touched = _test_bits(goal_bits, u, v)
            reach = np.take(goal_bits, u, axis=0) | np.take(goal_bits, v, axis=0)
        for size in range(3, p + 1):
            if goal_bits is not None and size == p:
                # A last member must close a goal pair unless one is in.
                untouched = ~touched
                cand[untouched] &= reach[untouched]
            rows, nodes = _expand_members(cand)
            if goal_bits is not None and size < p:
                touched = touched[rows] | _test_bits(reach, rows, nodes)
                reach = np.take(reach, rows, axis=0) | np.take(goal_bits, nodes, axis=0)
            table = np.take(table, rows, axis=0)
            table[:, size - 1] = nodes
            if size < p:
                cand = np.take(cand, rows, axis=0) & np.take(bits, nodes, axis=0)
            if rows.size == 0:
                break
        if table.shape[0]:  # only an empty table leaves the loop early
            out.append(table)
    if not out:
        return np.empty((0, p), dtype=np.int64)
    return np.concatenate(out) if len(out) > 1 else out[0]


def count_from_forward_bits(
    fptr: np.ndarray,
    findices: np.ndarray,
    bits: np.ndarray,
    p: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> int:
    """Kp count over a root-edge slice: pipeline to level p−1, popcount.

    The counting twin of :func:`table_from_forward_bits` — same
    partition-by-root-edge property, so per-slice counts from disjoint
    slices sum to the exact total (the shard executor's recount path).
    """
    edges = _forward_edge_pairs(fptr, findices)[start:stop]
    total = 0
    for lo in range(0, edges.shape[0], CHUNK_EDGES):
        u, v = edges[lo : lo + CHUNK_EDGES].T
        cand = np.take(bits, u, axis=0) & np.take(bits, v, axis=0)
        for _size in range(3, p):
            rows, nodes = _expand_members(cand)
            cand = np.take(cand, rows, axis=0) & np.take(bits, nodes, axis=0)
            if rows.size == 0:
                break
        if cand.shape[0]:
            total += _popcount_sum(cand)
    return total


#: The level pipeline's cost model, in word-equivalents: one per uint64
#: word ANDed (or ORed) into a candidate or reach row, and this many per
#: set bit expanded into a row.  Fitted on a 2-CPU x86_64 box over 24
#: listings (ER inputs, p = 3…5, with and without goals): 7.9 ns a word
#: and 31 ns an expanded bit, 28% rms error.
EXPAND_COST = 4.0

#: :func:`predict_root_work` runs the pipeline on one root edge in this
#: many: 1-3% of the listing's cost on the listings measured.
PREDICT_STEP = 64


class RootWork(NamedTuple):
    """A work prediction for the level pipeline over its root edges.

    ``weights[i]`` is root edge ``i``'s predicted work in
    word-equivalents: every root edge of a block of ``step`` takes the
    work of the block's middle one, the one the prediction ran.
    ``rows[k]`` is the predicted number of rows at level ``k + 3``."""

    weights: np.ndarray
    rows: np.ndarray

    @property
    def total(self) -> float:
        return float(self.weights.sum())


def predict_root_work(
    fptr: np.ndarray,
    findices: np.ndarray,
    bits: np.ndarray,
    p: int,
    goal_bits: Optional[np.ndarray] = None,
    step: int = PREDICT_STEP,
) -> RootWork:
    """Predict :func:`table_from_forward_bits`' work per root edge from
    every ``step``-th root edge.

    The middle root edge of each block of ``step`` runs the same level
    pipeline, without building a table.  (Work falls steeply along a
    block's ascending second endpoints, so its first root edge would
    overstate it.)  A root edge's work is the words its candidate rows AND
    (and, with ``goal_bits``, its reach rows OR) plus
    :data:`EXPAND_COST` per member bit expanded, the last level's
    included.  The goal mask applies at the last level, as in the
    pipeline.  Each level's predicted rows are the sampled rows weighted
    by their blocks' sizes, so at ``step=1`` they are the pipeline's
    exactly.
    """
    m = int(findices.size)
    starts = np.arange(0, m, step)
    sizes = np.minimum(step, m - starts)
    picks = starts + sizes // 2
    u = np.searchsorted(fptr, picks, side="right") - 1
    v = findices[picks]
    samples = picks.size
    width = bits.shape[1]
    root = np.arange(samples)
    cand = np.take(bits, u, axis=0) & np.take(bits, v, axis=0)
    goal = goal_bits is not None
    words = np.full(samples, float((1 + goal) * width))
    levels = np.zeros((p - 2, samples))
    if goal:
        touched = _test_bits(goal_bits, u, v)
        reach = np.take(goal_bits, u, axis=0) | np.take(goal_bits, v, axis=0)
    for size in range(3, p):
        rows, nodes = _expand_members(cand)
        root = root[rows]
        levels[size - 3] = np.bincount(root, minlength=samples)
        words += (1 + goal) * width * levels[size - 3]
        cand = np.take(cand, rows, axis=0) & np.take(bits, nodes, axis=0)
        if goal:
            touched = touched[rows] | _test_bits(reach, rows, nodes)
            reach = np.take(reach, rows, axis=0) | np.take(goal_bits, nodes, axis=0)
    if goal:
        untouched = ~touched
        cand[untouched] &= reach[untouched]
    last = _popcount(cand).sum(axis=1, dtype=np.int64)
    levels[p - 3] = np.bincount(root, weights=last, minlength=samples)
    work = words + EXPAND_COST * levels.sum(axis=0)
    return RootWork(np.repeat(work, sizes), levels @ sizes)


def _clique_table_bitset(csr: CSRGraph, p: int) -> np.ndarray:
    bits = csr.forward_bits()
    assert bits is not None
    fptr, findices = csr.forward()
    return table_from_forward_bits(fptr, findices, bits, p)


#: Above this many (groups × vertex-space) cells the grouped kernel's
#: dense presence-bitmap compaction falls back to a sort-based one.
#: 2^24 int32 cells cap the transient rank matrix at 64 MB.
DENSE_COMPACTION_CELLS = 1 << 24

#: :func:`prepare_edge_array` compacts through the presence bitmap while
#: the id span is at most this many ids per edge endpoint.  The bitmap's
#: cost grows with the span and the sort's with the endpoints; they broke
#: even at 16-20 ids an endpoint on 2k-22k endpoints (2-CPU x86_64).
DENSE_SPAN_PER_ENDPOINT = 8


def _compact_group_vertices(
    owner: np.ndarray, edges: np.ndarray, num_groups: int, vspace: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-group vertex compaction for the grouped pipeline.

    Assigns every distinct (group, vertex) pair a *combined* id, grouped
    by group and ascending by vertex within it.  Returns
    ``(combined, owner_of, vert_of, base)`` where ``combined`` maps each
    edge endpoint, ``owner_of``/``vert_of`` decode combined ids, and
    ``base[g]`` is group g's first combined id.  Ids must lie in
    ``[0, vspace)``.

    Small problems take the dense path — a flat groups×vertices presence
    bitmap whose running count is the combined id, no sort at all; large
    ones argsort the (group, vertex) keys.
    """
    keys = owner[:, None] * vspace + edges
    if num_groups * vspace <= DENSE_COMPACTION_CELLS:
        presence = np.zeros(num_groups * vspace, dtype=bool)
        presence[keys] = True
        cverts = np.flatnonzero(presence)
        combined = (np.cumsum(presence, dtype=np.int32) - 1)[keys].astype(np.int64)
    else:
        flat = keys.ravel()
        order = np.argsort(flat, kind="stable")
        ranked = flat[order]
        is_new = np.empty(ranked.size, dtype=bool)
        is_new[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=is_new[1:])
        cverts = ranked[is_new]
        combined = np.empty(flat.size, dtype=np.int64)
        combined[order] = np.cumsum(is_new) - 1
        combined = combined.reshape(edges.shape)
    owner_of, vert_of = np.divmod(cverts, vspace)
    base = np.searchsorted(owner_of, np.arange(num_groups + 1, dtype=np.int64))
    return combined, owner_of, vert_of, base


def _check_edge_rows(edges: np.ndarray, labels: bool = True) -> None:
    """Raise ``ValueError`` naming the first row of a ``(k, 2)`` int64
    edge array that is a self-loop or, unless ids are free ``labels``,
    holds a negative id.  A self-loop row would set a vertex's own bit
    in its candidate row and list rows that are not cliques; a negative
    id would wrap around the grouped kernel's presence bitmap."""
    bad = edges[:, 0] == edges[:, 1]
    if not labels:
        bad |= (edges < 0).any(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        u, v = edges[row].tolist()
        what = "is a self-loop" if u == v else "has a negative id"
        raise ValueError(f"edge row {row} ({u}, {v}) {what}")


def grouped_clique_tables(
    group_indptr: np.ndarray,
    edges: np.ndarray,
    p: int,
    assume_unique: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Kp of *every* group's edge set in one block-diagonal pipeline.

    ``edges`` is a ``(messages, 2)`` array of undirected edges and group
    ``g`` owns rows ``group_indptr[g]:group_indptr[g+1]`` — exactly the
    layout a :class:`~repro.congest.batch.DeliveredBatch` hands over, so
    the batch routing plane lists all learned subgraphs without ever
    splitting the columns into per-node Python objects.

    Every group's vertex set is compacted into its own *local* id range;
    the bitset rows are only ``max-group-size`` bits wide and all groups
    share one level pipeline (a clique can never cross groups because
    edges never do).  Returns ``(owners, table)``: row ``i`` of the
    id-ascending ``(count, p)`` table is a Kp found inside group
    ``owners[i]``'s edge set (rows ascend without a sort: ``vert_of``
    ascends within a group and the pipeline only grows to higher ids).
    ``assume_unique=True`` skips the edge dedup sort — correct whenever
    no group receives the same undirected edge twice, which the §2.4.3
    fan-out guarantees (one message per (edge, recipient) pair).

    Falls back to per-group :func:`clique_table_from_edge_array` in the
    (never hit by learned subgraphs) case of a group with more than
    :data:`BITSET_MAX_NODES` distinct vertices.  Raises ``ValueError``
    for a self-loop row or a negative id.
    """
    if p < 3:
        raise ValueError("clique tables exist for p >= 3 only")
    group_indptr = np.asarray(group_indptr, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64)
    empty = (np.empty(0, dtype=np.int64), np.empty((0, p), dtype=np.int64))
    if edges.shape[0] == 0:
        return empty
    _check_edge_rows(edges, labels=False)
    num_groups = group_indptr.size - 1
    owner = np.repeat(np.arange(num_groups, dtype=np.int64), np.diff(group_indptr))
    vspace = int(edges.max()) + 1
    combined, owner_of, vert_of, base = _compact_group_vertices(
        owner, edges, num_groups, vspace
    )
    group_width = int(np.diff(base).max(initial=0))
    if group_width > BITSET_MAX_NODES:  # pragma: no cover - huge groups
        owners_list: List[np.ndarray] = []
        tables: List[np.ndarray] = []
        for g in range(num_groups):
            rows = edges[group_indptr[g] : group_indptr[g + 1]]
            table = clique_table_from_edge_array(rows, p)
            if table.shape[0]:
                owners_list.append(np.full(table.shape[0], g, dtype=np.int64))
                tables.append(table)
        if not tables:
            return empty
        return np.concatenate(owners_list), np.concatenate(tables)

    # Identity-order forward edges per group: orient low local id → high.
    c_lo = np.minimum(combined[:, 0], combined[:, 1])
    c_hi = np.maximum(combined[:, 0], combined[:, 1])
    l_hi = c_hi - base[owner]
    if not assume_unique:
        fkeys = unique_sorted(c_lo * np.int64(group_width + 1) + l_hi)
        c_lo = fkeys // (group_width + 1)
        l_hi = fkeys % (group_width + 1)
        c_hi = base[owner_of[c_lo]] + l_hi
    total_verts = owner_of.size

    # Bitset rows over *local* ids: group_width bits regardless of how
    # many groups ride the pipeline together.  No CSR needed — the
    # or-scatter and the root table both take the edges in any order.
    width = max(1, (group_width + 63) // 64)
    bits = np.zeros((max(1, total_verts), width), dtype=np.uint64)
    _scatter_bits(bits, c_lo, l_hi)

    # Level pipeline on combined ids; a grown member's combined id is its
    # local id plus the *row's* group base (edges never cross groups).
    out_owner: List[np.ndarray] = []
    out_table: List[np.ndarray] = []
    for start in range(0, c_lo.size, CHUNK_EDGES):
        u = c_lo[start : start + CHUNK_EDGES]
        v = c_hi[start : start + CHUNK_EDGES]
        # As in table_from_forward_bits, rows are p wide from the root on.
        table = np.empty((u.size, p), dtype=np.int64)
        table[:, 0] = u
        table[:, 1] = v
        rowbase = base[owner_of[u]]
        cand = np.take(bits, u, axis=0) & np.take(bits, v, axis=0)
        for size in range(3, p + 1):
            grow_rows, members = _expand_members(cand)
            table = np.take(table, grow_rows, axis=0)
            rowbase = rowbase[grow_rows]
            table[:, size - 1] = rowbase + members
            if size < p:
                cand = np.take(cand, grow_rows, axis=0)
                cand &= np.take(bits, table[:, size - 1], axis=0)
            if grow_rows.size == 0:
                break
        if table.shape[0]:
            out_owner.append(owner_of[table[:, 0]])
            out_table.append(vert_of[table])
    if not out_table:
        return empty
    return np.concatenate(out_owner), np.concatenate(out_table)


class PreparedEdges(NamedTuple):
    """An undirected edge array compacted once for the level pipeline.

    ``verts`` maps local → original ids (ascending); ``fptr``/``findices``
    is the identity-order forward CSR over local ids (edges oriented
    low→high, duplicates collapsed, rows grouped and sorted); ``bits``
    are its packed rows and ``goal_bits`` the packed goal pairs
    (:func:`pack_goal_bits`).  Past :data:`BITSET_MAX_NODES` vertices
    both are ``None`` (the sorted-array regime); ``goal_bits`` is also
    ``None`` without a goal.  Root edge ``i`` is forward edge ``i``, so
    root-edge slices of one preparation partition its cliques.
    """

    verts: np.ndarray
    fptr: np.ndarray
    findices: np.ndarray
    bits: Optional[np.ndarray]
    goal_bits: Optional[np.ndarray]


def prepare_edge_array(edges: np.ndarray, goal=None) -> PreparedEdges:
    """Compact an edge array (and its goal pairs) for the level pipeline.

    This is the front half of :func:`clique_table_from_edge_array`,
    shared with the shard executor, which prepares once on the parent,
    predicts the work from the result and either lists it inline or
    fans root-edge slices of it across workers.  Ids are labels (any
    int64).  Where their span is at most :data:`DENSE_SPAN_PER_ENDPOINT`
    ids an endpoint, they are shifted to start at 0 and compacted
    through the grouped kernel's presence bitmap
    (:func:`_compact_group_vertices`, one group), which needs no sort;
    sparser ids take one sorted dedup.  Raises ``ValueError`` for an
    array that is not ``(k, 2)`` and for the first self-loop row.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be a (k, 2) array")
    _check_edge_rows(edges)
    low = int(edges.min()) if edges.size else 0
    span = int(edges.max()) - low + 1 if edges.size else 0
    if span <= min(DENSE_COMPACTION_CELLS, DENSE_SPAN_PER_ENDPOINT * edges.size):
        local, _, verts, _ = _compact_group_vertices(
            np.zeros(edges.shape[0], dtype=np.int64), edges - low, 1, span
        )
        verts += low
    else:
        verts = unique_sorted(edges)
        local = np.searchsorted(verts, edges)
    k = verts.size
    lo = np.minimum(local[:, 0], local[:, 1])
    hi = np.maximum(local[:, 0], local[:, 1])
    lo, hi = np.divmod(unique_sorted(lo * max(1, k) + hi), max(1, k))
    fptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(lo, minlength=k), out=fptr[1:])
    if k > BITSET_MAX_NODES:
        return PreparedEdges(verts, fptr, hi, None, None)
    goal_bits = None if goal is None else pack_goal_bits(verts, goal)
    return PreparedEdges(verts, fptr, hi, _pack_pairs(lo, hi, k), goal_bits)


def _compact_goal(verts: np.ndarray, goal) -> Tuple[np.ndarray, np.ndarray]:
    """Goal pairs as ``(lower, higher)`` compact ids of ``verts``.

    ``goal`` is a ``(g, 2)`` array of undirected pairs in original ids;
    a pair with an endpoint outside ``verts`` (an edge a faulted
    delivery never brought) is dropped.
    """
    goal = np.asarray(goal, dtype=np.int64).reshape(-1, 2)
    idx = np.searchsorted(verts, goal[np.isin(goal, verts).all(axis=1)])
    return np.minimum(idx[:, 0], idx[:, 1]), np.maximum(idx[:, 0], idx[:, 1])


def pack_goal_bits(verts: np.ndarray, goal) -> np.ndarray:
    """The ``goal_bits`` of :func:`table_from_forward_bits` for an
    identity-order adjacency over compact ids ``verts``: bit ``hi`` of
    row ``lo`` per goal pair (same shape as the adjacency's bit rows)."""
    lo, hi = _compact_goal(verts, goal)
    return _pack_pairs(lo, hi, verts.size)


def clique_table_from_edge_array(
    edges: np.ndarray, p: int, goal: Optional[np.ndarray] = None
) -> np.ndarray:
    """All Kp of an edge array, as an id-ascending ``(count, p)`` table.

    ``edges`` is a ``(k, 2)`` array of undirected edges (any orientation,
    duplicates allowed — they are collapsed; a self-loop row raises
    ``ValueError``).  This is the zero-Graph
    listing path for per-node learned subgraphs on the batch routing
    plane: vertices are compacted (:func:`prepare_edge_array`), edges oriented
    low→high under the *identity* order (no degeneracy peel — learned
    subgraphs are small and the pipeline only needs some total order),
    and the usual bitset level pipeline (sorted-array fallback past
    :data:`BITSET_MAX_NODES`) emits the table in original vertex ids.
    Rows ascend without a sort: ``verts`` ascends and the pipeline only
    grows a row by higher ids.

    ``goal`` (a ``(g, 2)`` array of undirected pairs) keeps only the
    cliques with a goal pair among their edges — the §2.4.3 listing
    obligation, tested inside the level pipeline (``goal_bits``).
    """
    if p < 3:
        raise ValueError("clique tables exist for p >= 3 only")
    return table_from_prepared(prepare_edge_array(edges, goal), p, goal)


def table_from_prepared(
    prepared: PreparedEdges, p: int, goal: Optional[np.ndarray] = None
) -> np.ndarray:
    """The inline listing of a :func:`prepare_edge_array` result (``goal``
    as it was prepared with), in original ids: the back half of
    :func:`clique_table_from_edge_array`, which the shard executor also
    runs on a listing too light to dispatch."""
    verts, fptr, findices, bits, goal_bits = prepared
    k = verts.size
    if bits is not None:
        table = table_from_forward_bits(fptr, findices, bits, p, goal_bits=goal_bits)
    else:
        table = table_from_forward_sorted(fptr, findices, p)
        if goal is not None:  # a sorted-key test on every member pair
            lo, hi = _compact_goal(verts, goal)
            touched = np.zeros(table.shape[0], dtype=bool)
            for i, j in itertools.combinations(range(p), 2):
                touched |= np.isin(table[:, i] * k + table[:, j], lo * k + hi)
            table = table[touched]
    return verts[table]


def _count_bitset(csr: CSRGraph, p: int) -> int:
    """Kp count: run the pipeline to level p-1, popcount the last level."""
    bits = csr.forward_bits()
    assert bits is not None
    fptr, findices = csr.forward()
    return count_from_forward_bits(fptr, findices, bits, p)


# ----------------------------------------------------------------------
# Sorted-array fallback (n > BITSET_MAX_NODES)
# ----------------------------------------------------------------------
def _clique_table_sorted(csr: CSRGraph, p: int) -> np.ndarray:
    """Explicit-stack search over sorted forward rows; no bit matrix."""
    fptr, findices = csr.forward()
    return table_from_forward_sorted(fptr, findices, p)


def _count_sorted(csr: CSRGraph, p: int) -> int:
    """Count via the same search, O(1) memory beyond the stack."""
    fptr, findices = csr.forward()
    return count_from_forward_sorted(fptr, findices, p)


def table_from_forward_sorted(
    fptr: np.ndarray,
    findices: np.ndarray,
    p: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> np.ndarray:
    """Kp rooted at nodes ``[start, stop)`` of a sorted forward adjacency.

    The sorted-regime twin of :func:`table_from_forward_bits`' root-edge
    slicing, except the slice is over *root nodes* (the search walks one
    root at a time).  Root nodes partition the cliques — every Kp is
    emitted exactly once, at its earliest-in-order member — so
    concatenating consecutive ranges in order reproduces the full-range
    table byte-for-byte.  This is the range restriction the out-of-core
    :class:`repro.dist.partition.PartitionedCSR` lists partitions with;
    ``fptr``/``findices`` may be ``np.memmap``-backed.
    """
    rows: List[Tuple[int, ...]] = []
    _search_forward_sorted(fptr, findices, p, rows.append, start=start, stop=stop)
    if not rows:
        return np.empty((0, p), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


def count_from_forward_sorted(
    fptr: np.ndarray,
    findices: np.ndarray,
    p: int,
    start: int = 0,
    stop: Optional[int] = None,
) -> int:
    """Kp count rooted at nodes ``[start, stop)``; per-range counts sum
    to the full count (same root-partition argument as the table)."""
    total = 0

    def bump(_prefix: Tuple[int, ...]) -> None:
        nonlocal total
        total += 1

    _search_forward_sorted(fptr, findices, p, bump, start=start, stop=stop)
    return total


def _search_forward_sorted(
    fptr: np.ndarray,
    findices: np.ndarray,
    p: int,
    emit,
    start: int = 0,
    stop: Optional[int] = None,
) -> None:
    n = fptr.size - 1
    stop = n if stop is None else min(int(stop), n)
    for u in range(max(0, int(start)), stop):
        base = findices[fptr[u] : fptr[u + 1]]
        if base.size < p - 1:
            continue
        stack: List[Tuple[Tuple[int, ...], np.ndarray]] = [((u,), base)]
        while stack:
            prefix, cand = stack.pop()
            remaining = p - len(prefix)
            if remaining == 1:
                for w in cand.tolist():
                    emit(prefix + (w,))
                continue
            if cand.size < remaining:
                continue
            for w in cand.tolist():
                nxt = intersect_sorted(cand, findices[fptr[w] : fptr[w + 1]])
                if nxt.size >= remaining - 1:
                    stack.append((prefix + (w,), nxt))


# ----------------------------------------------------------------------
# Public kernels
# ----------------------------------------------------------------------
def enumerate_cliques_csr(csr: CSRGraph, p: int) -> FrozenSet[Clique]:
    """All Kp of the snapshot, as frozensets — the CSR backend of
    :func:`repro.graphs.cliques.enumerate_cliques`.

    Returns the snapshot's *shared* cached set: the frozenset is
    materialized at most once per ``(snapshot, p)`` (lazily, via the
    cached :meth:`CSRGraph.clique_result` table) and every caller
    receives the same immutable object — mutation attempts fail loudly
    instead of silently diverging from the cache.
    """
    if p < 1:
        raise ValueError(f"clique size must be >= 1, got {p}")
    if p == 1:
        return frozenset(frozenset((v,)) for v in range(csr.num_nodes))
    return csr.clique_result(p).as_frozenset()


def count_cliques_csr(csr: CSRGraph, p: int) -> int:
    """Number of Kp, without materializing any clique objects."""
    if p < 1:
        raise ValueError(f"clique size must be >= 1, got {p}")
    if p == 1:
        return csr.num_nodes
    if p == 2:
        return csr.num_edges
    if p in csr._tables:
        return csr._tables[p].shape[0]
    if csr.forward_bits() is not None:
        return _count_bitset(csr, p)
    return _count_sorted(csr, p)


def triangle_count_csr(csr: CSRGraph) -> int:
    """K3 count: one AND + popcount per forward edge, batched."""
    return count_cliques_csr(csr, 3)
