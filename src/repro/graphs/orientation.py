"""Low-out-degree edge orientations (arboricity witnesses).

The paper's iterative machinery (Theorems 2.8/2.9) never works with
"arboricity" abstractly — it always carries an *orientation of the edges
with bounded out-degree* as a constructive witness.  This module provides
that object plus the standard way to obtain one (degeneracy / core
ordering), which yields out-degree ≤ degeneracy ≤ 2·arboricity − 1.

The orientation is also what drives load-balancing: each node is
"responsible" for the ≤ A edges oriented away from it (§2.4.3,
"Reshuffling the edges").
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.graphs.keys import EdgesLike, contains_sorted, edge_keys


class Orientation:
    """An orientation of a set of undirected edges.

    Stores, for each node ``v``, the set ``out(v)`` of nodes that ``v``'s
    edges point to.  The *out-degree bound* ``max_out_degree`` is the
    arboricity witness the paper threads through its iterations.
    """

    __slots__ = ("_out", "_encoded")

    def __init__(self, n: int) -> None:
        self._out: Dict[int, Set[int]] = {v: set() for v in range(n)}
        self._encoded: Optional[np.ndarray] = None

    @classmethod
    def from_keys(cls, n: int, keys: np.ndarray) -> "Orientation":
        """The orientation of the sorted, distinct oriented keys
        ``src·n + dst`` (the form :meth:`encoded_oriented` returns, and
        keeps as its cache).  Out-sets are filled in ascending id order."""
        orientation = cls(n)
        src, dst = np.divmod(keys, max(1, n))
        bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
        flat = dst.tolist()
        orientation._out = {v: set(flat[bounds[v] : bounds[v + 1]]) for v in range(n)}
        orientation._encoded = keys
        return orientation

    @property
    def num_nodes(self) -> int:
        return len(self._out)

    def orient(self, src: int, dst: int) -> None:
        """Record the edge ``{src, dst}`` as oriented ``src -> dst``."""
        if src == dst:
            raise ValueError(f"cannot orient self-loop at {src}")
        if dst in self._out.get(src, set()) or src in self._out.get(dst, set()):
            raise ValueError(f"edge ({src}, {dst}) already oriented")
        self._out[src].add(dst)
        self._encoded = None

    def out_neighbors(self, v: int) -> Set[int]:
        """Targets of edges oriented away from ``v``."""
        return self._out[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    @property
    def max_out_degree(self) -> int:
        """The witness bound: max over nodes of out-degree."""
        if not self._out:
            return 0
        return max(len(targets) for targets in self._out.values())

    def direction(self, u: int, v: int) -> Tuple[int, int]:
        """Return the oriented pair for edge ``{u, v}``.

        Raises
        ------
        KeyError
            If the edge is not oriented by this orientation.
        """
        if v in self._out.get(u, set()):
            return (u, v)
        if u in self._out.get(v, set()):
            return (v, u)
        raise KeyError(f"edge ({u}, {v}) not present in orientation")

    def covers(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` is oriented by this orientation."""
        return v in self._out.get(u, set()) or u in self._out.get(v, set())

    def encoded_oriented(self) -> np.ndarray:
        """All oriented edges as one sorted ``src·n + dst`` key array.

        Cached on the instance (``orient`` invalidates), so the batch
        routing plane pays the O(m) build once per orientation no matter
        how many clusters consult it.
        """
        if self._encoded is None:
            n = self.num_nodes
            keys = [
                src * n + dst for src, targets in self._out.items() for dst in targets
            ]
            self._encoded = np.sort(np.asarray(keys, dtype=np.int64))
        return self._encoded

    def direction_array(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`direction`: oriented (src, dst) per input pair.

        Every input pair must be oriented one way or the other (the same
        contract the scalar method enforces with ``KeyError``).
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        n = self.num_nodes
        enc = self.encoded_oriented()
        as_is = contains_sorted(enc, a * n + b)
        missing = ~(as_is | contains_sorted(enc, b * n + a))
        if missing.any():
            u, v = int(a[missing][0]), int(b[missing][0])
            raise KeyError(f"edge ({u}, {v}) not present in orientation")
        src = np.where(as_is, a, b)
        dst = np.where(as_is, b, a)
        return src, dst

    def edges(self) -> Iterator[Edge]:
        """All oriented edges, in canonical (undirected) form."""
        for src, targets in self._out.items():
            for dst in targets:
                yield canonical_edge(src, dst)

    def oriented_edges(self) -> Iterator[Tuple[int, int]]:
        """All edges as (source, target) pairs."""
        for src, targets in self._out.items():
            for dst in targets:
                yield (src, dst)

    def num_edges(self) -> int:
        return sum(len(targets) for targets in self._out.values())

    def restricted_to(self, edges: EdgesLike) -> "Orientation":
        """A new orientation containing only the given (canonical) edges.

        ``edges`` is a sorted canonical key array (``u·n + v`` with
        ``u < v``, the form the ARB-LIST state keeps) or any edge
        collection :func:`~repro.graphs.keys.edge_keys` takes.  Used when
        the algorithm partitions an oriented edge set: each part inherits
        the orientation of its edges, so out-degree bounds only ever
        decrease.
        """
        n = self.num_nodes
        if isinstance(edges, np.ndarray) and edges.ndim == 1:
            keep = edges
        else:
            keep = edge_keys(edges, n)
        oriented = self.encoded_oriented()
        src, dst = np.divmod(oriented, max(1, n))
        canonical = np.minimum(src, dst) * n + np.maximum(src, dst)
        return Orientation.from_keys(n, oriented[contains_sorted(keep, canonical)])

    def merged_with(self, other: "Orientation") -> "Orientation":
        """Union of two orientations on disjoint edge sets.

        The paper's Ês accumulates oriented edge sets across ARB-LIST
        iterations; out-degrees add, matching the (c+1)·n^δ bound of
        Theorem 2.9.
        """
        if other.num_nodes != self.num_nodes:
            raise ValueError("orientations are over different node sets")
        merged = Orientation(self.num_nodes)
        for src, dst in self.oriented_edges():
            merged.orient(src, dst)
        for src, dst in other.oriented_edges():
            merged.orient(src, dst)
        return merged

    def __repr__(self) -> str:
        return (
            f"Orientation(n={self.num_nodes}, m={self.num_edges()}, "
            f"max_out={self.max_out_degree})"
        )


#: Below this edge count the dict/set bucket queue beats building a CSR
#: snapshot; ``backend="auto"`` switches over past it.
AUTO_CSR_MIN_EDGES = 2048

#: The names accepted by every function with a backend seam.
BACKENDS = ("auto", "python", "csr")


def resolve_backend(graph: Graph, backend: str) -> str:
    """Map ``"auto"`` to a concrete backend for this graph.

    The single routing rule shared by every seam function
    (``enumerate_cliques``, ``count_cliques``, ``degeneracy_orientation``,
    ``degeneracy``, ...): csr for graphs with at least
    :data:`AUTO_CSR_MIN_EDGES` edges, python below.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; use one of {BACKENDS}")
    if backend != "auto":
        return backend
    return "csr" if graph.num_edges >= AUTO_CSR_MIN_EDGES else "python"


def degeneracy_orientation(graph: Graph, backend: str = "auto") -> Orientation:
    """Orient each edge from the earlier node in a degeneracy order.

    Repeatedly removes the *lowest-id node among those of minimum
    remaining degree* and orients its remaining edges away from it.  The
    resulting max out-degree equals the degeneracy of the graph, which
    is a 2-approximation of arboricity — exactly the kind of witness
    Theorem 2.8 consumes.  The lowest-id tie-break is a library-wide
    contract: :func:`repro.graphs.csr.degeneracy_order` implements the
    identical rule, so every backend yields the same orientation.

    Parameters
    ----------
    graph:
        Input graph.
    backend:
        ``"python"`` — bucket-queue peeling over the dict adjacency;
        ``"csr"`` — order computed by the vectorized kernel of
        :mod:`repro.graphs.csr`; ``"auto"`` — csr for graphs with at
        least :data:`AUTO_CSR_MIN_EDGES` edges, python below.
    """
    if resolve_backend(graph, backend) == "csr":
        return _degeneracy_orientation_csr(graph)
    n = graph.num_nodes
    orientation = Orientation(n)
    degree = {v: graph.degree(v) for v in graph.nodes()}
    # Bucket queue keyed by current degree.
    buckets: List[Set[int]] = [set() for _ in range(n)] if n else []
    for v, d in degree.items():
        buckets[d].add(v)
    removed: Set[int] = set()
    pointer = 0
    for _ in range(n):
        while pointer < len(buckets) and not buckets[pointer]:
            pointer += 1
        if pointer >= len(buckets):
            break
        v = min(buckets[pointer])  # deterministic lowest-id tie-break
        buckets[pointer].discard(v)
        removed.add(v)
        for u in graph.neighbors(v):
            if u in removed:
                continue
            orientation.orient(v, u)
            buckets[degree[u]].discard(u)
            degree[u] -= 1
            buckets[degree[u]].add(u)
        pointer = max(0, pointer - 1)
    return orientation


def _degeneracy_orientation_csr(graph: Graph) -> Orientation:
    """CSR-backed construction of the same degeneracy orientation."""
    fptr, findices = graph.to_csr().forward()
    n = graph.num_nodes
    # Forward rows ascend by node and within each row: the keys are sorted.
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(fptr))
    return Orientation.from_keys(n, src * n + findices)


def orientation_from_order(graph: Graph, order: Iterable[int]) -> Orientation:
    """Orient every edge from the node appearing earlier in ``order``."""
    position = {v: i for i, v in enumerate(order)}
    if len(position) != graph.num_nodes:
        raise ValueError("order must be a permutation of the node set")
    orientation = Orientation(graph.num_nodes)
    for u, v in graph.edges():
        if position[u] < position[v]:
            orientation.orient(u, v)
        else:
            orientation.orient(v, u)
    return orientation


def validate_orientation(graph: Graph, orientation: Orientation) -> None:
    """Check an orientation covers exactly the graph's edges, or raise.

    The listing pipeline calls this in its internal assertions (and the
    tests call it directly): an orientation that drops or invents edges
    would silently break the reshuffling load-balance argument.
    """
    oriented = {canonical_edge(u, v) for u, v in orientation.oriented_edges()}
    actual = graph.edge_set()
    missing = actual - oriented
    extra = oriented - actual
    if missing:
        raise ValueError(f"orientation misses {len(missing)} edges, e.g. {next(iter(missing))}")
    if extra:
        raise ValueError(f"orientation has {len(extra)} non-edges, e.g. {next(iter(extra))}")
