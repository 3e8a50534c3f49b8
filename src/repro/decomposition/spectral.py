"""Spectral helpers: normalized adjacency, Fiedler vectors, gaps.

Used by the sweep-cut routine to find low-conductance cuts and by the
mixing-time estimator.  All computations are on the *induced subgraph* of
a candidate component, represented with local indices ``0..k-1``.

SciPy is imported inside the functions that use it: only expander
decompositions need it, so ``import repro``, the Theorem 1.3 driver,
the serve plane and shard workers never load it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph

# Components at or below this size use dense eigensolvers — more robust
# than ARPACK for tiny matrices.
_DENSE_CUTOFF = 64

#: Seed of ARPACK's start vector.  Left unset, SciPy (≥ 1.15) draws it
#: from OS entropy, so λ₂, the Fiedler vector — and with it a near-tie
#: sweep cut — and the mixing estimate would differ between calls.
ARPACK_SEED = 0


def arpack_start(k: int) -> np.ndarray:
    """The fixed ``v0`` every ARPACK call here starts from, so each solve
    is a pure function of its k×k matrix."""
    return np.random.default_rng(ARPACK_SEED).uniform(-1.0, 1.0, k)


def adjacency_matrix(graph: Graph, nodes: Sequence[int]):
    """Sparse adjacency matrix of the induced subgraph (local indices),
    a ``scipy.sparse.csr_matrix``.

    Sliced from the graph's cached CSR snapshot: local ids follow the
    sorted node ids, so each snapshot row, kept to the subset's columns,
    is already the matrix row, sorted.
    """
    import scipy.sparse as sp

    ordered = np.asarray(sorted(nodes), dtype=np.int64)
    k = ordered.size
    local = np.full(graph.num_nodes, -1, dtype=np.int64)
    local[ordered] = np.arange(k, dtype=np.int64)
    rows, cols = graph.to_csr().neighbor_pairs(ordered)
    cols = local[cols]
    inside = cols >= 0
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(local[rows[inside]], minlength=k), out=indptr[1:])
    return sp.csr_matrix((np.ones(indptr[-1]), cols[inside], indptr), shape=(k, k))


def lazy_walk_matrix(adj):
    """Lazy random-walk matrix W = (I + D^{-1}A) / 2 of a sparse
    adjacency matrix, as a sparse matrix.

    The lazy walk is what "mixing time" means in the paper's clusters —
    laziness removes periodicity so the walk always converges.
    """
    import scipy.sparse as sp

    degrees = np.asarray(adj.sum(axis=1)).flatten()
    if np.any(degrees == 0):
        raise ValueError("lazy walk undefined for isolated vertices")
    inv_d = sp.diags(1.0 / degrees)
    k = adj.shape[0]
    return (sp.identity(k) + inv_d @ adj) * 0.5


def normalized_laplacian_second_eigenpair(adj) -> Tuple[float, np.ndarray]:
    """(λ₂, v₂) of the normalized Laplacian L = I − D^{-1/2} A D^{-1/2}
    of a sparse adjacency matrix.

    λ₂ relates to conductance via Cheeger: λ₂/2 ≤ φ ≤ √(2 λ₂), and the
    sweep over v₂ realizes the Cheeger cut.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    k = adj.shape[0]
    degrees = np.asarray(adj.sum(axis=1)).flatten()
    if np.any(degrees == 0):
        raise ValueError("normalized Laplacian undefined for isolated vertices")
    d_inv_sqrt = sp.diags(1.0 / np.sqrt(degrees))
    lap = sp.identity(k) - d_inv_sqrt @ adj @ d_inv_sqrt
    if k <= _DENSE_CUTOFF:
        eigenvalues, eigenvectors = np.linalg.eigh(lap.toarray())
        return float(eigenvalues[1]), np.asarray(eigenvectors[:, 1]).flatten()
    try:
        eigenvalues, eigenvectors = spla.eigsh(
            lap, k=2, sigma=-1e-9, which="LM", v0=arpack_start(k)
        )
    except spla.ArpackError:
        # ARPACK shift-invert can fail on difficult spectra; fall back to
        # the (slower but robust) smallest-magnitude mode, then dense.
        # Only ARPACK's own failures (no convergence included) switch
        # solvers: any other error is a bug and must surface.
        try:
            eigenvalues, eigenvectors = spla.eigsh(
                lap, k=2, which="SM", maxiter=5000, v0=arpack_start(k)
            )
        except spla.ArpackError:
            dense_vals, dense_vecs = np.linalg.eigh(lap.toarray())
            return float(dense_vals[1]), np.asarray(dense_vecs[:, 1]).flatten()
    order = np.argsort(eigenvalues)
    return float(eigenvalues[order[1]]), np.asarray(eigenvectors[:, order[1]]).flatten()


def lambda2_of_component(graph: Graph, nodes: Sequence[int]) -> Optional[float]:
    """λ₂ of the normalized Laplacian of an induced subgraph.

    Returns ``None`` for degenerate components (fewer than 3 nodes), where
    the spectral machinery carries no information.
    """
    if len(nodes) < 3:
        return None
    adj = adjacency_matrix(graph, nodes)
    value, _vector = normalized_laplacian_second_eigenpair(adj)
    return max(0.0, value)
