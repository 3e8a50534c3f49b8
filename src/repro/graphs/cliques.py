"""Sequential ground-truth Kp enumeration, with selectable backends.

Every distributed listing result in this library is verified against this
module: the union of per-node outputs must equal :func:`enumerate_cliques`
of the input graph (``analysis.verification`` wires that check up).

The enumeration uses the standard degeneracy-ordering technique (in the
spirit of Chiba–Nishizeki): process nodes in a degeneracy order and extend
cliques only *forward* along that order, so each Kp is produced exactly
once and branching factors are bounded by the degeneracy (≤ 2·arboricity).
Complexity is O(m · degeneracy^{p-2}), fast for the sparse-to-moderate
workloads the benchmarks use.

Two backends implement the identical contract (and the differential tests
in ``tests/test_backend_differential.py`` hold them to it):

- ``"python"`` — explicit-stack search over dict/set forward
  neighborhoods.  No recursion, so deep searches (large p on dense
  cliques) cannot hit the interpreter's recursion limit.
- ``"csr"`` — the vectorized kernels of :mod:`repro.graphs.csr` over an
  immutable CSR snapshot (bitset-row intersections for small-to-medium
  n, sorted-array merges beyond).

``"auto"`` picks csr once the graph has at least
:data:`~repro.graphs.orientation.AUTO_CSR_MIN_EDGES` edges — below that
the snapshot build costs more than it saves.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.orientation import degeneracy_orientation, resolve_backend
from repro.graphs.table import CliqueTable

Clique = FrozenSet[int]


def _forward_neighborhoods(graph: Graph) -> Dict[int, Set[int]]:
    """Out-neighbor sets under the degeneracy orientation.

    For every node ``v``, ``forward[v]`` holds the neighbors that come
    *later* in the degeneracy (peeling) order; ``|forward[v]|`` is at most
    the degeneracy of the graph.
    """
    orientation = degeneracy_orientation(graph, backend="python")
    return {v: set(orientation.out_neighbors(v).tolist()) for v in graph.nodes()}


def enumerate_cliques(graph: Graph, p: int, backend: str = "auto") -> Set[Clique]:
    """All Kp instances of ``graph`` as frozensets of ``p`` nodes.

    Parameters
    ----------
    graph:
        Input graph.
    p:
        Clique size; must be >= 1.  ``p == 1`` returns all nodes,
        ``p == 2`` all edges.
    backend:
        ``"python"``, ``"csr"`` or ``"auto"`` (see module docstring).
        Both backends return exactly the same set.
    """
    if p < 1:
        raise ValueError(f"clique size must be >= 1, got {p}")
    backend = resolve_backend(graph, backend)
    if p == 1:
        return {frozenset((v,)) for v in graph.nodes()}
    if p == 2:
        return {frozenset(e) for e in graph.edges()}
    if backend == "csr":
        from repro.graphs.csr import enumerate_cliques_csr

        return enumerate_cliques_csr(graph.to_csr(), p)
    return _enumerate_python(graph, p)


def clique_table(graph: Graph, p: int, backend: str = "auto") -> CliqueTable:
    """All Kp instances of ``graph`` as a canonical
    :class:`~repro.graphs.table.CliqueTable` — the columnar twin of
    :func:`enumerate_cliques` and the library's canonical result type.

    On the csr backend this is the snapshot's shared cached table (no
    python clique objects are built); the python backend enumerates
    sets first and packs them, which keeps the two backends
    differentially comparable.  A graph with fewer than ``p(p-1)/2``
    edges holds no Kp and gets the empty table before either backend
    runs.
    """
    if p < 1:
        raise ValueError(f"clique size must be >= 1, got {p}")
    if graph.num_edges < p * (p - 1) // 2:
        return CliqueTable.empty(p)
    backend = resolve_backend(graph, backend)
    if backend == "csr" and p >= 2:
        return graph.to_csr().clique_result(p)
    if p == 1:
        rows = np.fromiter(graph.nodes(), dtype=np.int64).reshape(-1, 1)
        return CliqueTable.from_rows(rows, p=1)
    if p == 2:
        rows = np.asarray(
            [tuple(sorted(e)) for e in graph.edges()], dtype=np.int64
        ).reshape(-1, 2)
        return CliqueTable.from_rows(rows, p=2)
    return CliqueTable.from_cliques(_enumerate_python(graph, p), p)


def _enumerate_python(graph: Graph, p: int) -> Set[Clique]:
    """Explicit-stack forward search (the pure-Python backend, p >= 3).

    This is the mechanical de-recursion of the original ``extend``
    helper: each stack frame is one former call, popped frames run the
    identical emit/prune/branch steps, so behavior and output order
    invariants are unchanged — but depth is now bounded by the frame
    budget of the heap, not the interpreter recursion limit (deep
    searches such as p = 6 on a large clique stay safe).

    Invariant per frame ``(prefix, candidates, remaining)``: every
    candidate is adjacent to all prefix members and comes after all of
    them in the degeneracy order, so each clique is emitted exactly
    once.
    """
    forward = _forward_neighborhoods(graph)
    found: Set[Clique] = set()
    emit = found.add
    for v in graph.nodes():
        stack: List[Tuple[Tuple[int, ...], Set[int], int]] = [
            ((v,), forward[v], p - 1)
        ]
        while stack:
            prefix, candidates, remaining = stack.pop()
            if remaining == 0:
                emit(frozenset(prefix))
                continue
            if len(candidates) < remaining:
                continue
            for w in candidates:
                stack.append((prefix + (w,), candidates & forward[w], remaining - 1))
    return found


def count_cliques(graph: Graph, p: int, backend: str = "auto") -> int:
    """Number of Kp instances (|enumerate_cliques|).

    The csr backend counts through popcount kernels without ever
    materializing clique objects, so this is the cheap way to size an
    output (e.g. C(40, 6) ≈ 3.8M at p = 6 on a 40-clique).
    """
    if p < 1:
        raise ValueError(f"clique size must be >= 1, got {p}")
    backend = resolve_backend(graph, backend)
    if backend == "csr":
        from repro.graphs.csr import count_cliques_csr

        return count_cliques_csr(graph.to_csr(), p)
    if p == 1:
        return graph.num_nodes
    if p == 2:
        return graph.num_edges
    return len(_enumerate_python(graph, p))


def cliques_containing_edge(cliques: Set[Clique], u: int, v: int) -> Set[Clique]:
    """Filter a clique set to those containing both endpoints of an edge."""
    return {c for c in cliques if u in c and v in c}


def cliques_touching_edges(cliques: Set[Clique], edges) -> Set[Clique]:
    """Cliques containing at least one edge from ``edges`` (canonical pairs).

    This is the paper's notion of the listing obligation attached to a
    "goal edge" set: ARB-LIST must output every Kp with >= 1 edge in Êm.
    """
    edge_set = {tuple(sorted(e)) for e in edges}
    result: Set[Clique] = set()
    for clique in cliques:
        members = sorted(clique)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if (u, v) in edge_set:
                    result.add(clique)
                    break
            else:
                continue
            break
    return result


def triangles(graph: Graph, backend: str = "auto") -> Set[Clique]:
    """Convenience wrapper: all K3 instances."""
    return enumerate_cliques(graph, 3, backend=backend)
