"""Low-degree peeling: extracting the ``Es`` part of a decomposition.

Repeatedly removing any vertex whose *current* degree is below a threshold
``t``, and orienting its remaining edges away from it, yields an edge set
whose orientation has out-degree ≤ t — i.e. arboricity ≤ t, witnessed.
What survives the peeling has minimum degree ≥ t, which is exactly the
cluster-degree precondition of Definition 2.1.

This mirrors how [Chang et al. SODA'19] produce ``Es``; the paper relies
on the arboricity *witness orientation* (Definition 2.2, second bullet),
which this module returns explicitly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Set, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.keys import edge_keys
from repro.graphs.orientation import Orientation


def peel_low_degree(graph: Graph, threshold: int) -> Tuple[Graph, Orientation]:
    """Peel vertices of degree < ``threshold`` out of ``graph``.

    Parameters
    ----------
    graph:
        Input graph (not modified).
    threshold:
        The peeling degree ``t`` (the n^δ of the decomposition).

    Returns
    -------
    (remainder, es_orientation):
        ``remainder`` is the surviving subgraph (same node range, min
        degree ≥ threshold on non-isolated nodes); ``es_orientation`` is
        the peeled edge set, each edge oriented away from the vertex
        peeled first, with out-degree < threshold.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    n = graph.num_nodes
    remainder = graph.copy()
    if threshold == 0:
        return remainder, Orientation(n)

    keys: List[int] = []
    queue: Deque[int] = deque(
        v for v in graph.nodes() if 0 < remainder.degree(v) < threshold
    )
    queued: Set[int] = set(queue)
    while queue:
        v = queue.popleft()
        queued.discard(v)
        if remainder.degree(v) == 0 or remainder.degree(v) >= threshold:
            continue
        # Ascending ids: the queue order (and with it which endpoint an
        # edge is oriented away from) is a function of the edge set, not
        # of the order a neighbour set happens to iterate in.
        for u in sorted(remainder.neighbors(v)):
            keys.append(v * n + u)
            remainder.remove_edge(v, u)
            if 0 < remainder.degree(u) < threshold and u not in queued:
                queue.append(u)
                queued.add(u)
    return remainder, Orientation(n, np.sort(np.array(keys, dtype=np.int64)))


def validate_peeling(
    original: Graph, remainder: Graph, orientation: Orientation, threshold: int
) -> None:
    """Assert the peeling postconditions; raise ``ValueError`` otherwise.

    Checks: (1) the remainder and the oriented edges partition the
    original edges, (2) out-degree < threshold, (3) every surviving
    non-isolated node has degree ≥ threshold in the remainder.
    """
    n = original.num_nodes
    # Sorted together, the two key sets equal the original's distinct
    # keys only if they partition it (an edge in both would repeat).
    kept = edge_keys(remainder.to_csr().edge_table(), n)
    parts = np.sort(np.concatenate([kept, orientation.canonical_keys()]))
    if not np.array_equal(parts, edge_keys(original.to_csr().edge_table(), n)):
        raise ValueError("peeling does not partition the edge set")
    if threshold > 0 and orientation.max_out_degree >= max(1, threshold):
        # Out-degree can equal threshold-1 at most: a vertex is peeled only
        # while its remaining degree is < threshold.
        raise ValueError(
            f"witness out-degree {orientation.max_out_degree} >= threshold {threshold}"
        )
    for v in remainder.nodes():
        d = remainder.degree(v)
        if 0 < d < threshold:
            raise ValueError(
                f"surviving node {v} has degree {d} < threshold {threshold}"
            )
