"""Core undirected graph data structure.

The whole library operates on a single, simple representation: nodes are
integers ``0..n-1`` and edges are canonical pairs ``(u, v)`` with
``u < v``.  The distributed simulators, the expander decomposition and the
listing algorithms all share this structure, so it is deliberately small,
well-specified and heavily tested.

Design notes
------------
- Adjacency is stored as ``dict[int, set[int]]``.  Set-based adjacency
  makes the neighborhood-intersection operations that dominate clique
  listing (``N(u) & N(v)``) fast and idiomatic.
- Instances are mutable (edges can be added/removed) because the paper's
  algorithms repeatedly *partition and peel* edge sets; convenience
  constructors return fresh objects, and :meth:`Graph.subgraph_edges`
  builds edge-induced subgraphs without copying node sets.
- Two constructors.  ``Graph(n, edges)`` adds one edge at a time through
  :meth:`Graph.add_edge`; it stays the reference that defines what a
  valid edge is (no self-loop, both ids in ``[0, n)``, repeats
  collapse), and every small or hand-written graph goes through it.
  :meth:`Graph.from_edge_array` builds the same graph from an ``(m, 2)``
  integer array in one vectorized pass: it raises ``add_edge``'s error
  for the first invalid row, collapses repeats with one sort, fills each
  neighbour set in ascending id order and seeds the CSR snapshot
  (:meth:`Graph.to_csr`) it computed on the way.  The CONGEST outer loop
  and the snapshot round-trips (``CSRGraph.to_graph``, the overlays'
  ``to_graph``) build their graphs this way.  No result may depend on
  the order a neighbour set iterates in: the two constructors insert
  neighbours in different orders, so at larger n the same set can
  iterate differently.
- Equality compares node count and edge sets, which is what the
  algorithms' invariants need.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.keys import edge_array, unique_sorted

Edge = Tuple[int, int]


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


class Graph:
    """Simple undirected graph on nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes.  Node identifiers are ``range(n)``.
    edges:
        Optional iterable of edges; each edge is canonicalized.

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
        self._n = n
        self._adj: Dict[int, Set[int]] = {v: set() for v in range(n)}
        self._num_edges = 0
        self._csr = None
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    @classmethod
    def from_edge_array(cls, n: int, edges) -> "Graph":
        """``Graph(n, edges)`` from an ``(m, 2)`` integer array, vectorized.

        Validates what :meth:`add_edge` validates and raises its
        ``ValueError`` for the first invalid row; repeated edges (either
        orientation) collapse.  Neighbour sets are filled in ascending
        id order, and the CSR snapshot built on the way is cached, so
        :meth:`to_csr` costs nothing until the graph is mutated.
        """
        from repro.graphs.csr import CSRGraph

        g = cls(n)
        pairs = edge_array(edges)
        u, v = pairs[:, 0], pairs[:, 1]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        invalid = (lo == hi) | (lo < 0) | (hi >= n)
        if invalid.any():
            first = int(np.argmax(invalid))
            g.add_edge(int(u[first]), int(v[first]))  # raises add_edge's error
        keys = unique_sorted(lo * n + hi)
        # Both directions of every edge, sorted by (row, column).
        lo, hi = np.divmod(keys, max(1, n))
        directed = np.sort(np.concatenate([keys, hi * n + lo]))
        rows, indices = np.divmod(directed, max(1, n))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        flat, bounds = indices.tolist(), indptr.tolist()
        g._adj = {x: set(flat[bounds[x] : bounds[x + 1]]) for x in range(n)}
        g._num_edges = int(keys.size)
        g._csr = CSRGraph(indptr, indices)
        return g

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
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        self._check_node(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` is present."""
        if u == v:
            return False
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self._adj[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in canonical form."""
        for u in range(self._n):
            for v in self._adj[u]:
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
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
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
        mutates nothing) and invalidates the cached CSR snapshot *once*
        per call instead of once per edge.
        """
        pairs = [canonical_edge(u, v) for u, v in edges]
        for u, v in pairs:
            self._check_node(u)
            self._check_node(v)
        adj = self._adj
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
        out-of-range pairs) are ignored, and the CSR snapshot cache is
        invalidated once per call, not once per removed edge.
        """
        adj = self._adj
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

        The copy shares this graph's CSR snapshot: snapshots are
        immutable, and mutating either graph drops only its own cache.
        """
        g = Graph(self._n)
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        g._csr = self._csr
        return g

    def to_csr(self) -> "CSRGraph":
        """Immutable CSR snapshot for the vectorized kernels.

        The snapshot is cached on this graph and invalidated by
        :meth:`add_edge` / :meth:`remove_edge`, so repeated kernel
        queries against an unchanged graph share one snapshot (and with
        it the memoized orientation, bitsets and clique tables).  Later
        mutations of this graph never propagate into a handed-out
        snapshot — a fresh one is built instead.
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
        g = Graph(self._n)
        for u in keep:
            for v in self._adj[u]:
                if v in keep and u < v:
                    g.add_edge(u, v)
        return g

    def connected_components(self) -> List[Set[int]]:
        """Connected components as sets of nodes (isolated nodes included)."""
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
                for v in self._adj[u]:
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


def graph_from_edge_set(n: int, edges: Iterable[Edge]) -> Graph:
    """Convenience constructor mirroring :meth:`Graph.subgraph_edges`."""
    return Graph(n, edges)

