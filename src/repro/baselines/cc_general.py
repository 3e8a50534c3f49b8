"""General (non-sparsity-aware) CONGESTED CLIQUE Kp listing.

The classic Dolev–Lenzen–Peleg-style scheme: partition the n nodes into
n^{1/p} parts *deterministically* (contiguous blocks) and have node i
learn every **potential** edge slot between its p assigned parts.  Without
sparsity awareness the schedule must reserve bandwidth for the complete
bipartite slot count — p²·(n^{1−1/p})² words per node — giving
Θ(n^{1−2/p}) rounds regardless of the input's density.

This is the comparator that makes Theorem 1.3's point: on sparse inputs
the sparsity-aware algorithm's measured-load cost collapses to Õ(1) while
this baseline stays at n^{1−2/p}.
"""

from __future__ import annotations

import math

from repro.congest.congested_clique import CongestedClique
from repro.core.partition import responsible_new_id
from repro.core.result import ListingResult
from repro.graphs.cliques import enumerate_cliques
from repro.graphs.graph import Graph


def general_congested_clique_listing(graph: Graph, p: int) -> ListingResult:
    """Worst-case-reservation Kp listing in the CONGESTED CLIQUE."""
    if p < 3:
        raise ValueError(f"p must be >= 3, got {p}")
    n = graph.num_nodes
    result = ListingResult(p=p, model="cc-general", cliques=set())
    if n == 0 or p > n:
        return result

    clique_net = CongestedClique(n)
    s = max(1, int(math.floor(n ** (1.0 / p))))
    while (s + 1) ** p <= n:
        s += 1
    block = math.ceil(n / s)

    # Reserved receive volume: all p² ordered part pairs, every potential
    # edge slot between two blocks of ≤ ⌈n/s⌉ nodes, 2 words per slot.
    slots_per_pair = block * block
    reserved_words = 2 * p * p * slots_per_pair
    rounds = clique_net.rounds_for_load(reserved_words, reserved_words)
    result.ledger.charge(
        "learn_all_slots",
        rounds,
        parts=s,
        reserved_words=reserved_words,
        theory_rounds=n ** (1.0 - 2.0 / p),
    )

    part_of = [min(s - 1, v // block) for v in range(n)]
    for clique in enumerate_cliques(graph, p):
        multiset = [part_of[v] for v in sorted(clique)]
        node = responsible_new_id(multiset, s, p) - 1
        result.attribute(node, clique)
    result.stats.update({"n": float(n), "parts": float(s)})
    return result
