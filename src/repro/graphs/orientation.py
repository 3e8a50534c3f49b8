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

from dataclasses import dataclass, field
from typing import List, Set, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.keys import EdgesLike, contains_sorted, edge_keys, key_pairs


@dataclass(frozen=True, eq=False)
class Orientation:
    """An orientation of a set of undirected edges, kept as one key array.

    ``keys`` holds each oriented edge ``src → dst`` once, as the key
    ``src·n + dst`` (:mod:`repro.graphs.keys`): sorted, distinct, and
    never both ``u → v`` and ``v → u``.  Sorted keys group by source, so
    a node's out-neighbours are one slice and the *out-degree bound*
    ``max_out_degree`` — the arboricity witness the paper threads
    through its iterations — is one count.

    An orientation never changes (``keys`` is read-only):
    :meth:`restricted_to` and :meth:`merged_with` return new ones.  The
    constructor trusts ``keys``; :meth:`from_pairs` checks its input.
    """

    num_nodes: int
    keys: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        self.keys.flags.writeable = False

    @classmethod
    def from_pairs(cls, n: int, src, dst) -> "Orientation":
        """The orientation ``src[i] → dst[i]`` of each pair.

        Raises ``ValueError`` for an id outside ``[0, n)`` (its key would
        alias another edge), a self-loop, or an edge given twice in
        either direction.
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        outside = np.flatnonzero((np.minimum(src, dst) < 0) | (np.maximum(src, dst) >= n))
        if outside.size:
            u, v = int(src[outside[0]]), int(dst[outside[0]])
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        loops = np.flatnonzero(src == dst)
        if loops.size:
            raise ValueError(f"cannot orient self-loop at {int(src[loops[0]])}")
        canonical = np.minimum(src, dst) * n + np.maximum(src, dst)
        order = np.argsort(canonical, kind="stable")
        repeats = np.flatnonzero(np.diff(canonical[order]) == 0)
        if repeats.size:
            second = order[repeats[0] + 1]
            u, v = int(src[second]), int(dst[second])
            raise ValueError(f"edge ({u}, {v}) already oriented")
        return cls(n, np.sort(src * n + dst))

    def out_neighbors(self, v: int) -> np.ndarray:
        """Targets of the edges oriented away from ``v``, ascending."""
        n = self.num_nodes
        lo, hi = np.searchsorted(self.keys, (v * n, (v + 1) * n))
        return self.keys[lo:hi] - v * n

    @property
    def max_out_degree(self) -> int:
        """The witness bound: max over nodes of out-degree."""
        return int(np.bincount(self.keys // max(1, self.num_nodes)).max(initial=0))

    def canonical_keys(self) -> np.ndarray:
        """The undirected edges, as sorted canonical keys ``min·n + max``."""
        return edge_keys(key_pairs(self.keys, self.num_nodes), self.num_nodes)

    def direction(self, u: int, v: int) -> Tuple[int, int]:
        """Return the oriented pair for edge ``{u, v}``.

        Raises
        ------
        KeyError
            If the edge is not oriented by this orientation.
        """
        n = self.num_nodes
        forward, backward = contains_sorted(
            self.keys, np.array((u * n + v, v * n + u), dtype=np.int64)
        ).tolist()
        if forward:
            return (u, v)
        if backward:
            return (v, u)
        raise KeyError(f"edge ({u}, {v}) not present in orientation")

    def direction_array(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`direction`: oriented (src, dst) per input pair.

        Every input pair must be oriented one way or the other (the same
        contract the scalar method enforces with ``KeyError``).
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        n = self.num_nodes
        as_is = contains_sorted(self.keys, a * n + b)
        missing = ~(as_is | contains_sorted(self.keys, b * n + a))
        if missing.any():
            u, v = int(a[missing][0]), int(b[missing][0])
            raise KeyError(f"edge ({u}, {v}) not present in orientation")
        src = np.where(as_is, a, b)
        dst = np.where(as_is, b, a)
        return src, dst

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
        src, dst = np.divmod(self.keys, max(1, n))
        canonical = np.minimum(src, dst) * n + np.maximum(src, dst)
        return Orientation(n, self.keys[contains_sorted(keep, canonical)])

    def merged_with(self, other: "Orientation") -> "Orientation":
        """Union of two orientations on disjoint edge sets.

        The paper's Ês accumulates oriented edge sets across ARB-LIST
        iterations; out-degrees add, matching the (c+1)·n^δ bound of
        Theorem 2.9.  Raises ``ValueError`` if an edge is in both.
        """
        if other.num_nodes != self.num_nodes:
            raise ValueError("orientations are over different node sets")
        n = self.num_nodes
        src, dst = np.divmod(np.concatenate([self.keys, other.keys]), max(1, n))
        return Orientation.from_pairs(n, src, dst)

    def __repr__(self) -> str:
        return (
            f"Orientation(n={self.num_nodes}, m={self.keys.size}, "
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
    keys: List[int] = []
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
            keys.append(v * n + u)
            buckets[degree[u]].discard(u)
            degree[u] -= 1
            buckets[degree[u]].add(u)
        pointer = max(0, pointer - 1)
    return Orientation(n, np.sort(np.array(keys, dtype=np.int64)))


def _degeneracy_orientation_csr(graph: Graph) -> Orientation:
    """CSR-backed construction of the same degeneracy orientation."""
    fptr, findices = graph.to_csr().forward()
    n = graph.num_nodes
    # Forward rows ascend by node and within each row: the keys are sorted.
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(fptr))
    return Orientation(n, src * n + findices)


def validate_orientation(graph: Graph, orientation: Orientation) -> None:
    """Check an orientation covers exactly the graph's edges, or raise.

    An orientation that drops or invents edges would silently break the
    reshuffling load-balance argument.
    """
    n = max(graph.num_nodes, orientation.num_nodes)
    oriented = edge_keys(key_pairs(orientation.keys, orientation.num_nodes), n)
    actual = edge_keys(graph.to_csr().edge_table(), n)
    missing = actual[~contains_sorted(oriented, actual)]
    extra = oriented[~contains_sorted(actual, oriented)]
    if missing.size:
        raise ValueError(
            f"orientation misses {missing.size} edges, e.g. {divmod(int(missing[0]), n)}"
        )
    if extra.size:
        raise ValueError(
            f"orientation has {extra.size} non-edges, e.g. {divmod(int(extra[0]), n)}"
        )
