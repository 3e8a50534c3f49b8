"""Chang–Pettie–Zhang-style triangle listing (the p = 3 ancestor).

The paper's pipeline is a strict generalization of the SODA 2019 triangle
algorithm: at p = 3 no outside edges ever matter (a triangle with an edge
in a cluster has its third vertex adjacent to both endpoints, so all its
edges are internal or crossing), and the in-cluster step degenerates to
the same partition-and-learn scheme.  Running our implementation at p = 3
therefore *is* the Chang-et-al.-style algorithm; this module packages it
under its own name for the baseline benchmarks.
"""

from __future__ import annotations

from typing import Optional

from repro.core.listing import list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.core.result import ListingResult
from repro.graphs.graph import Graph


def chang_style_triangle_listing(
    graph: Graph,
    params: Optional[AlgorithmParameters] = None,
    seed: int = 0,
) -> ListingResult:
    """Triangle listing through the expander-decomposition pipeline."""
    if params is None:
        params = AlgorithmParameters(p=3)
    result = list_cliques_congest(graph, 3, params=params, seed=seed)
    result.model = "chang-triangle"
    return result
