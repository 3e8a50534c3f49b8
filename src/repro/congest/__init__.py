"""CONGEST and CONGESTED CLIQUE model substrate.

Two execution fidelities, both producing round counts (see
docs/architecture.md §2):

- :mod:`~repro.congest.network` — a *faithful* synchronous message-passing
  engine: node programs exchange real messages, and each edge carries at
  most ``bandwidth`` O(log n)-bit words per direction per round.  Used for
  simple phases and for validating the charged primitives.
- :mod:`~repro.congest.routing` / :mod:`~repro.congest.congested_clique` —
  *charged primitives*: the black-box routines the paper invokes
  (Theorem 2.4 intra-cluster routing, Lenzen routing in the congested
  clique) are simulated by moving data directly and charging the round
  cost the corresponding theorem proves, driven by the *measured* loads.

All round charges land in a :class:`~repro.congest.ledger.RoundLedger`,
which keeps one named entry per algorithm phase so that benchmark output
decomposes total cost exactly the way the paper's analysis does.

The charged primitives run on one of two *routing planes*
(:mod:`~repro.congest.batch`): the ``object`` plane moves per-message
Python tuples through dict mailboxes, the ``batch`` plane moves columnar
numpy arrays — identical ledger charges, very different wall-clock.
"""

from repro.congest.batch import (
    DeliveredBatch,
    FanoutBatch,
    MessageBatch,
    bincount_loads,
    deliver,
    fanout_edges_by_pair,
)
from repro.congest.errors import (
    BandwidthExceededError,
    CorruptionDetectedError,
    FaultError,
    ModelViolationError,
    RetryBudgetExceededError,
    SimulationLimitError,
)
from repro.congest.ledger import Phase, RoundLedger
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.congest.routing import ClusterRouter, CostModel, broadcast_rounds
from repro.congest.congested_clique import CongestedClique
from repro.congest.topology import (
    DEFAULT_TOPOLOGY,
    TOPOLOGY_KINDS,
    LinkCharge,
    Topology,
    makespan_charge,
    parse_topology,
)

__all__ = [
    "DeliveredBatch",
    "FanoutBatch",
    "MessageBatch",
    "bincount_loads",
    "deliver",
    "fanout_edges_by_pair",
    "BandwidthExceededError",
    "CorruptionDetectedError",
    "FaultError",
    "ModelViolationError",
    "RetryBudgetExceededError",
    "SimulationLimitError",
    "Phase",
    "RoundLedger",
    "Message",
    "Network",
    "Context",
    "NodeProgram",
    "ClusterRouter",
    "CostModel",
    "broadcast_rounds",
    "CongestedClique",
    "DEFAULT_TOPOLOGY",
    "TOPOLOGY_KINDS",
    "LinkCharge",
    "Topology",
    "makespan_charge",
    "parse_topology",
]
