"""Core undirected graph data structure.

The whole library operates on a single, simple representation: nodes are
integers ``0..n-1`` and edges are canonical pairs ``(u, v)`` with
``u < v``.  The distributed simulators, the expander decomposition and the
listing algorithms all share this structure, so it is deliberately small,
well-specified and heavily tested.

Design notes
------------
- A graph built from edges holds one immutable CSR snapshot
  (:meth:`Graph.to_csr`) and nothing else.  ``Graph(n, edges)`` and
  :meth:`Graph.from_edge_array` share one validated array pass: ids are
  checked (:func:`~repro.graphs.keys.edge_array`), the first edge that
  :meth:`Graph.add_edge` would refuse raises its ``ValueError``, repeats
  (either orientation) collapse in one sort, and the sorted rows become
  ``indptr``/``indices``.  The batch plane reads graphs only through
  this snapshot.
- Neighbour sets (``dict[int, set[int]]``) are a view, built from the
  snapshot in ascending id order by the first call that needs them:
  :meth:`~Graph.neighbors`, :meth:`~Graph.edges`, :meth:`~Graph.has_edge`,
  :meth:`~Graph.connected_components`, :meth:`~Graph.subgraph_nodes` or
  a mutation.  Set-based adjacency makes the neighbourhood intersections
  of the pure-Python enumerators (``N(u) & N(v)``) idiomatic.
  :meth:`~Graph.degree`, :attr:`~Graph.num_edges`, :meth:`~Graph.copy`
  and :meth:`~Graph.to_csr` answer from the snapshot while there is one.
- Instances are mutable (edges can be added/removed) because the paper's
  algorithms repeatedly *partition and peel* edge sets.  A mutation
  builds the sets and drops the snapshot; the next :meth:`Graph.to_csr`
  walks the sets once.  :meth:`Graph.add_edge` stays the per-edge
  definition of a valid edge (no self-loop, both ids in ``[0, n)``).
  No result may depend on the order a neighbour set iterates in: a
  set built from the snapshot and one grown edge by edge hold the same
  ids in different insertion orders.
- Equality compares node count and edge sets, which is what the
  algorithms' invariants need.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.keys import edge_array, unique_sorted

if TYPE_CHECKING:
    from repro.graphs.csr import CSRGraph

Edge = Tuple[int, int]

#: Serializes the first build of a graph's neighbour sets, so concurrent
#: first readers share one dict.
_SETS_LOCK = threading.Lock()


def canonical_edge(u: int, v: int) -> Edge:
    """Return the canonical representation ``(min, max)`` of an edge.

    Raises
    ------
    ValueError
        If ``u == v`` (self-loops are not part of the model).
    """
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


def neighbor_sets(csr: "CSRGraph") -> Dict[int, Set[int]]:
    """The neighbour sets of a CSR snapshot, each filled in ascending id
    order: the set view a :class:`Graph` builds on first use."""
    flat, bounds = csr.indices.tolist(), csr.indptr.tolist()
    return {v: set(flat[bounds[v] : bounds[v + 1]]) for v in range(len(bounds) - 1)}


class Graph:
    """Simple undirected graph on nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes.  Node identifiers are ``range(n)``.
    edges:
        Optional ``(m, 2)`` integer array or iterable of pairs; each edge
        is canonicalized and repeats collapse.

    Examples
    --------
    >>> g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> g.num_edges
    4
    >>> sorted(g.neighbors(0))
    [1, 3]
    """

    __slots__ = ("_n", "_adj", "_num_edges", "_csr")

    def __init__(self, n: int, edges: Optional[Iterable[Edge]] = None) -> None:
        if n < 0:
            raise ValueError(f"number of nodes must be non-negative, got {n}")
        from repro.graphs.csr import CSRGraph

        self._n = n
        self._adj: Optional[Dict[int, Set[int]]] = None
        pairs = edge_array(() if edges is None else edges)
        u, v = pairs[:, 0], pairs[:, 1]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        invalid = (lo == hi) | (lo < 0) | (hi >= n)
        if invalid.any():
            first = int(np.argmax(invalid))
            self.add_edge(int(u[first]), int(v[first]))  # raises add_edge's error
        # Both directions of every edge, sorted by (row, column): one
        # sort puts each row's neighbours in ascending order.
        directed = unique_sorted(np.concatenate([lo * n + hi, hi * n + lo]))
        rows, indices = np.divmod(directed, max(1, n))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        self._csr: Optional[CSRGraph] = CSRGraph(indptr, indices)
        self._num_edges = directed.size // 2

    @classmethod
    def from_edge_array(cls, n: int, edges) -> "Graph":
        """``Graph(n, edges)``, named for callers that hold an ``(m, 2)``
        integer array: the same validated array pass, with the same
        ``ValueError`` for the first invalid row."""
        return cls(n, edges)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (``n`` in the paper)."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges (``m`` in the paper)."""
        return self._num_edges

    def nodes(self) -> range:
        """All node identifiers."""
        return range(self._n)

    def neighbors(self, v: int) -> Set[int]:
        """The neighbor set of ``v`` (a live set; do not mutate)."""
        self._check_node(v)
        return self._sets()[v]

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        self._check_node(v)
        if self._adj is not None:
            return len(self._adj[v])
        indptr = self._csr.indptr
        return int(indptr[v + 1] - indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is present."""
        if u == v:
            return False
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self._sets()[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in canonical form."""
        adj = self._sets()
        for u in range(self._n):
            for v in adj[u]:
                if u < v:
                    yield (u, v)

    def edge_set(self) -> Set[Edge]:
        """All edges as a set of canonical pairs."""
        return set(self.edges())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Add edge ``{u, v}``; return ``True`` if it was not present."""
        u, v = canonical_edge(u, v)
        self._check_node(u)
        self._check_node(v)
        adj = self._sets()
        if v in adj[u]:
            return False
        adj[u].add(v)
        adj[v].add(u)
        self._num_edges += 1
        self._csr = None
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove edge ``{u, v}``; return ``True`` if it was present."""
        if not self.has_edge(u, v):
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._csr = None
        return True

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Bulk-add edges; return how many were newly added.

        The streaming layer (and the generators) mutate graphs in
        batches, so this validates the whole batch up front (bad input
        mutates nothing) and drops the CSR snapshot *once* per call
        instead of once per edge.
        """
        pairs = [canonical_edge(u, v) for u, v in edges]
        for u, v in pairs:
            self._check_node(u)
            self._check_node(v)
        adj = self._sets()
        added = 0
        for u, v in pairs:
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                added += 1
        if added:
            self._num_edges += added
            self._csr = None
        return added

    def remove_edges(self, edges: Iterable[Edge]) -> int:
        """Bulk-remove edges; return how many were present.

        Symmetric to :meth:`add_edges`: absent edges (and self-loops,
        out-of-range pairs) are ignored, and the CSR snapshot is dropped
        once per call, not once per removed edge.
        """
        adj = self._sets()
        removed = 0
        for u, v in edges:
            if self.has_edge(u, v):
                adj[u].discard(v)
                adj[v].discard(u)
                removed += 1
        if removed:
            self._num_edges -= removed
            self._csr = None
        return removed

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """An independent copy of this graph.

        While this graph holds a CSR snapshot the copy holds the same
        one and nothing else (snapshots are immutable; mutating either
        graph drops only its own reference); otherwise it copies the
        neighbour sets.
        """
        g = Graph.__new__(Graph)
        g._n = self._n
        g._num_edges = self._num_edges
        g._csr = self._csr
        g._adj = None
        if self._csr is None:
            g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    def to_csr(self) -> "CSRGraph":
        """Immutable CSR snapshot for the vectorized kernels.

        A graph built from edges already holds it; after a mutation the
        next call walks the neighbour sets once and caches the result.
        Repeated kernel queries against an unchanged graph share one
        snapshot (and with it the memoized orientation, bitsets and
        clique tables).  The arrays are read-only, and later mutations
        of this graph never reach a handed-out snapshot.
        """
        if self._csr is None:
            from repro.graphs.csr import CSRGraph

            self._csr = CSRGraph.from_graph(self)
        return self._csr

    def subgraph_edges(self, edges: Iterable[Edge]) -> "Graph":
        """Edge-induced subgraph on the same node set ``0..n-1``.

        The paper's algorithms constantly re-interpret the same vertex set
        under shrinking edge sets (``E_s``, ``E_r``, ...), so the node set
        is preserved verbatim.
        """
        return Graph(self._n, edges)

    def subgraph_nodes(self, nodes: Iterable[int]) -> "Graph":
        """Node-induced subgraph, *keeping original node identifiers*.

        Nodes outside ``nodes`` become isolated; this keeps all IDs stable
        which is essential for cluster-local algorithms that still talk
        about global node identifiers.
        """
        keep = set(nodes)
        for v in keep:
            self._check_node(v)
        adj = self._sets()
        return Graph(
            self._n, [(u, v) for u in keep for v in adj[u] if v in keep and u < v]
        )

    def connected_components(self) -> List[Set[int]]:
        """Connected components as sets of nodes (isolated nodes included)."""
        adj = self._sets()
        seen: Set[int] = set()
        components: List[Set[int]] = []
        for start in range(self._n):
            if start in seen:
                continue
            component = {start}
            stack = [start]
            seen.add(start)
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        component.add(v)
                        stack.append(v)
            components.append(component)
        return components

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, edge: Edge) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self.edge_set() == other.edge_set()

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("Graph is mutable and unhashable")

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._num_edges})"

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_node(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise ValueError(f"node {v} outside range [0, {self._n})")

    def _sets(self) -> Dict[int, Set[int]]:
        """The neighbour sets, built from the snapshot on first use."""
        adj = self._adj
        if adj is None:
            with _SETS_LOCK:
                adj = self._adj
                if adj is None:
                    adj = self._adj = neighbor_sets(self._csr)
        return adj


def graph_from_edge_set(n: int, edges: Iterable[Edge]) -> Graph:
    """Convenience constructor mirroring :meth:`Graph.subgraph_edges`."""
    return Graph(n, edges)
