"""CONGESTED CLIQUE model: all-to-all communication with word accounting.

In the CONGESTED CLIQUE, every pair of the n nodes (not just graph
neighbors) exchanges one O(log n)-bit word per round.  Two primitives
cover everything Theorem 1.3 needs:

- **uniform broadcast** — every node sends the same ≤ n-word vector to
  everyone: ``ceil(words / 1)`` rounds, since each of the n-1 links out of
  a node carries a dedicated copy (classic pipelining, 1 word per link per
  round means a w-word vector to all takes w rounds).
- **Lenzen routing** — an arbitrary multicommodity pattern where every
  node sends at most n·w and receives at most n·w words completes in
  O(w) rounds.  We charge ``lenzen_slack · ceil(max_load / n)``.

Routing is the Lenzen charge policy of the shared
:class:`~repro.congest.routing.Router` core, which *performs* the data
movement (mailboxes) and charges a ledger.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.congest.routing import DEFAULT_COST_MODEL, CostModel, Router
from repro.congest.topology import Topology, makespan_for_rounds


class CongestedClique(Router):
    """An n-node congested clique: the Lenzen charge policy of
    :class:`~repro.congest.routing.Router` plus uniform broadcast."""

    def __init__(
        self,
        n: int,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        faults: Optional[Any] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"need at least one node, got {n}")
        super().__init__(
            range(n), n, cost_model.lenzen_slack, n, faults, topology,
            identity={"n": n}, scope=f"clique of size {n}",
        )

    # perfbench/tracing.py patches these names through this class's __dict__.
    route_batch = Router.route_batch
    charge_batch = Router.charge_batch

    def broadcast_rounds(self, words_per_node: int) -> float:
        """Rounds for every node to send the same w words to all others."""
        if words_per_node <= 0:
            return 0.0
        return float(words_per_node)

    def broadcast_makespan(self, words_per_node: int) -> float:
        """Topology-aware completion time of the uniform all-to-all
        broadcast: every node ships ``words_per_node`` words to every
        other node along its overlay route.  On the (default) clique
        this equals :meth:`broadcast_rounds` rescaled by link costs —
        and exactly equals it at unit bandwidth / zero latency."""
        rounds = self.broadcast_rounds(words_per_node)
        if self.topology is None or self.topology.is_clique:
            return makespan_for_rounds(self.topology, rounds)
        compiled = self.topology.compile(self.n)
        return compiled.broadcast_charge(int(words_per_node)).makespan
