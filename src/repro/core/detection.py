"""Kp detection and counting via listing (§5 of the paper).

The paper observes that in the CONGEST model all known Kp results are for
*listing*, and detection/counting follow at the same round complexity:
run the listing algorithm, then

- **detection** — any node whose output is non-empty raises a flag; a
  single convergecast (O(D) ≤ O(n^{exponent}) rounds, charged explicitly)
  delivers the OR to everyone.
- **counting** — each node counts the cliques it listed; since the
  listing assigns every clique to exactly one responsible node (the part-
  multiset owner / the minimum member in the broadcast stage), summing
  per-node counts over a convergecast yields the exact global count.

These wrappers exist so downstream users get the natural API; no faster
detection/counting is known (the open problem the paper's §5 states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.listing import list_cliques_congest
from repro.core.params import AlgorithmParameters
from repro.core.result import ListingResult
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of distributed Kp detection.

    Attributes
    ----------
    found:
        Whether at least one Kp exists.
    witness_node:
        A node that listed an instance (None when not found).
    rounds:
        Total charged rounds (listing + convergecast).
    listing:
        The underlying listing result, for inspection.
    """

    found: bool
    witness_node: Optional[int]
    rounds: float
    listing: ListingResult


@dataclass(frozen=True)
class CountingResult:
    """Outcome of distributed Kp counting."""

    count: int
    per_node_counts: Dict[int, int]
    rounds: float
    listing: ListingResult


def _convergecast_rounds(n: int) -> float:
    """Charge for aggregating one O(log n)-bit value to a leader and
    broadcasting it back: 2 · diameter ≤ 2·(n−1); we charge the standard
    BFS-tree bound O(D + log n), conservatively D ≤ n − 1 is never the
    regime of interest, so we charge the tree depth of the listing's
    communication structure, ⌈log₂ n⌉ + diameter-free pipelining ≈
    2·⌈log₂ n⌉ for the graphs the benchmarks use (connected, small
    diameter).  The charge is explicit so callers can audit it.
    """
    return 2.0 * math.ceil(math.log2(max(2, n)))


def detect_clique(
    graph: Graph,
    p: int,
    params: Optional[AlgorithmParameters] = None,
    variant: Optional[str] = None,
    seed: int = 0,
) -> DetectionResult:
    """Distributed Kp detection at listing cost (§5).

    Returns as soon as the listing completes; the flag-OR convergecast is
    charged on top.
    """
    listing = list_cliques_congest(graph, p, params=params, variant=variant, seed=seed)
    convergecast = _convergecast_rounds(graph.num_nodes)
    listing.ledger.charge("detection_convergecast", convergecast)
    witness = None
    for node, cliques in sorted(listing.per_node.items()):
        if cliques:
            witness = node
            break
    return DetectionResult(
        found=bool(listing.cliques),
        witness_node=witness,
        rounds=listing.rounds,
        listing=listing,
    )


def count_cliques_distributed(
    graph: Graph,
    p: int,
    params: Optional[AlgorithmParameters] = None,
    variant: Optional[str] = None,
    seed: int = 0,
) -> CountingResult:
    """Distributed exact Kp counting at listing cost (§5).

    Correctness relies on the listing's single-owner attribution: every
    clique is output by exactly one responsible node, so per-node counts
    add up without double counting.  (This property holds for the
    pipeline's part-multiset owners and the broadcast stage's minimum-
    member rule; it is asserted here.)
    """
    listing = list_cliques_congest(graph, p, params=params, variant=variant, seed=seed)
    convergecast = _convergecast_rounds(graph.num_nodes)
    listing.ledger.charge("counting_convergecast", convergecast)
    per_node = {node: len(cliques) for node, cliques in listing.per_node.items()}
    total = sum(per_node.values())
    if total != len(listing.cliques):
        # Overlapping attribution (possible when the K4 variant's light
        # nodes duplicate a cluster listing): de-duplicate by charging
        # each clique to its minimum attributed node.
        owner: Dict[frozenset, int] = {}
        for node, cliques in listing.per_node.items():
            for clique in cliques:
                owner[clique] = min(owner.get(clique, node), node)
        per_node = {}
        for clique, node in owner.items():
            per_node[node] = per_node.get(node, 0) + 1
        total = sum(per_node.values())
    assert total == len(listing.cliques)
    return CountingResult(
        count=total,
        per_node_counts=per_node,
        rounds=listing.rounds,
        listing=listing,
    )
