"""Spectral helpers: normalized adjacency, Fiedler vectors, gaps.

Used by the sweep-cut routine to find low-conductance cuts and by the
mixing-time estimator.  All computations are on the *induced subgraph* of
a candidate component, represented with local indices ``0..k-1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.graphs.graph import Graph

# Components at or below this size use dense eigensolvers — more robust
# than ARPACK for tiny matrices.
_DENSE_CUTOFF = 64


def local_indexing(nodes: Sequence[int]) -> Tuple[Dict[int, int], List[int]]:
    """Map a node subset to contiguous local indices (and back)."""
    ordered = sorted(nodes)
    return {v: i for i, v in enumerate(ordered)}, ordered


def adjacency_matrix(graph: Graph, nodes: Sequence[int]) -> sp.csr_matrix:
    """Sparse adjacency matrix of the induced subgraph (local indices)."""
    index, ordered = local_indexing(nodes)
    keep = set(ordered)
    rows: List[int] = []
    cols: List[int] = []
    for u in ordered:
        iu = index[u]
        for v in graph.neighbors(u):
            if v in keep:
                rows.append(iu)
                cols.append(index[v])
    data = np.ones(len(rows))
    k = len(ordered)
    return sp.csr_matrix((data, (rows, cols)), shape=(k, k))


def lazy_walk_matrix(adj: sp.csr_matrix) -> sp.csr_matrix:
    """Lazy random-walk matrix W = (I + D^{-1}A) / 2.

    The lazy walk is what "mixing time" means in the paper's clusters —
    laziness removes periodicity so the walk always converges.
    """
    degrees = np.asarray(adj.sum(axis=1)).flatten()
    if np.any(degrees == 0):
        raise ValueError("lazy walk undefined for isolated vertices")
    inv_d = sp.diags(1.0 / degrees)
    k = adj.shape[0]
    return (sp.identity(k) + inv_d @ adj) * 0.5


def normalized_laplacian_second_eigenpair(
    adj: sp.csr_matrix,
) -> Tuple[float, np.ndarray]:
    """(λ₂, v₂) of the normalized Laplacian L = I − D^{-1/2} A D^{-1/2}.

    λ₂ relates to conductance via Cheeger: λ₂/2 ≤ φ ≤ √(2 λ₂), and the
    sweep over v₂ realizes the Cheeger cut.
    """
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
        eigenvalues, eigenvectors = spla.eigsh(lap, k=2, sigma=-1e-9, which="LM")
    except spla.ArpackError:
        # ARPACK shift-invert can fail on difficult spectra; fall back to
        # the (slower but robust) smallest-magnitude mode, then dense.
        # Only ARPACK's own failures (no convergence included) switch
        # solvers: any other error is a bug and must surface.
        try:
            eigenvalues, eigenvectors = spla.eigsh(lap, k=2, which="SM", maxiter=5000)
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
